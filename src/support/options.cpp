/**
 * @file
 * Implementation of the shared bench/example knobs.
 */

#include "support/options.hpp"

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "support/logging.hpp"

namespace eaao::support {

namespace {

/** Parse a strictly positive integer; 0 on failure. */
unsigned
parsePositive(const char *text)
{
    if (text == nullptr || *text == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == nullptr || *end != '\0' || v <= 0)
        return 0;
    return static_cast<unsigned>(v);
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
