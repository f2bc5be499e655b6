/**
 * @file
 * Implementation of the shared bench/example knobs.
 */

#include "support/options.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "support/logging.hpp"

namespace eaao::support {

std::optional<std::uint64_t>
parseUint(std::string_view text, std::uint64_t lo, std::uint64_t hi)
{
    const char *end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi)
        return std::nullopt;
    return value;
}

std::uint64_t
uintFlag(const char *flag, const char *text, std::uint64_t lo,
         std::uint64_t hi)
{
    if (const auto value = parseUint(text, lo, hi))
        return *value;
    std::fprintf(stderr, "%s expects an integer in %llu..%llu, got '%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
}

namespace {

/** Parse a strictly positive thread count; 0 on failure. */
unsigned
parsePositive(const char *text)
{
    return static_cast<unsigned>(
        parseUint(text, 1, std::numeric_limits<unsigned>::max())
            .value_or(0));
}

} // namespace

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("EAAO_THREADS")) {
        const unsigned n = parsePositive(env);
        if (n == 0)
            EAAO_FATAL("EAAO_THREADS must be a positive integer, got '",
                       env, "'");
        return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
threadsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0) {
            if (i + 1 >= argc)
                EAAO_FATAL("--threads requires a value");
            const unsigned n = parsePositive(argv[i + 1]);
            if (n == 0)
                EAAO_FATAL("--threads must be a positive integer, got '",
                           argv[i + 1], "'");
            return n;
        }
        if (std::strncmp(arg, "--threads=", 10) == 0) {
            const unsigned n = parsePositive(arg + 10);
            if (n == 0)
                EAAO_FATAL("--threads must be a positive integer, got '",
                           arg + 10, "'");
            return n;
        }
    }
    return defaultThreads();
}

namespace {

/**
 * Shared parser for path-valued flags: `--flag <path>` / `--flag=<path>`
 * in argv, then the environment variable, then nullopt.
 */
std::optional<std::string>
pathFromArgs(int argc, char **argv, const char *flag, const char *env_var)
{
    const std::size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, flag) == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0')
                EAAO_FATAL(flag, " requires a path");
            return std::string(argv[i + 1]);
        }
        if (std::strncmp(arg, flag, flag_len) == 0 &&
            arg[flag_len] == '=') {
            if (arg[flag_len + 1] == '\0')
                EAAO_FATAL(flag, " requires a path");
            return std::string(arg + flag_len + 1);
        }
    }
    if (const char *env = std::getenv(env_var)) {
        if (*env != '\0')
            return std::string(env);
    }
    return std::nullopt;
}

} // namespace

std::optional<std::string>
benchJsonFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--bench-json", "EAAO_BENCH_JSON");
}

std::optional<std::string>
traceJsonFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--trace-json", "EAAO_TRACE_JSON");
}

std::optional<std::string>
metricsJsonFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--metrics-json", "EAAO_METRICS_JSON");
}

} // namespace eaao::support
