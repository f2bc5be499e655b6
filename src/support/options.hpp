/**
 * @file
 * Common command-line / environment knobs for benches and examples.
 *
 * Every experiment binary accepts `--threads N` (also `--threads=N`)
 * and honours the `EAAO_THREADS` environment variable; precedence is
 * argv > environment > hardware concurrency. The trial harness
 * guarantees byte-identical output for any thread count, so the knob
 * only changes wall-clock time.
 *
 * `--bench-json <path>` (also `--bench-json=<path>`, or the
 * EAAO_BENCH_JSON environment variable) names a file the bench appends
 * its timing record to — see bench_timer.hpp. Timing never goes to
 * stdout, so bench output stays byte-identical either way.
 *
 * `--trace-json <path>` / EAAO_TRACE_JSON and `--metrics-json <path>`
 * / EAAO_METRICS_JSON name the observability outputs: a Chrome
 * trace_event file and a metrics JSON file (see src/obs/ and
 * docs/observability.md). Like timing, they never touch stdout.
 */

#ifndef EAAO_SUPPORT_OPTIONS_HPP
#define EAAO_SUPPORT_OPTIONS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace eaao::support {

/**
 * Parse all of @p text as a decimal integer in [@p lo, @p hi] with
 * std::from_chars: no sign, no whitespace, nothing after the digits.
 * nullopt for anything else, an out-of-range value included.
 */
std::optional<std::uint64_t> parseUint(std::string_view text,
                                       std::uint64_t lo, std::uint64_t hi);

/**
 * The value @p text given to integer flag @p flag, parsed by
 * parseUint. A bad value prints one line naming the flag and the range
 * on stderr and exits 2.
 */
std::uint64_t uintFlag(const char *flag, const char *text,
                       std::uint64_t lo, std::uint64_t hi);

/**
 * The value @p text given to duration flag @p flag: all of it must
 * parse (std::from_chars) as a finite, non-negative number of seconds.
 * A bad value prints one line naming the flag on stderr and exits 2.
 */
double secondsFlag(const char *flag, const char *text);

/**
 * Default worker-thread count: EAAO_THREADS if set and positive,
 * otherwise std::thread::hardware_concurrency() (min 1).
 */
unsigned defaultThreads();

/**
 * Resolve the worker-thread count for a bench/example binary from
 * `--threads N` / `--threads=N` in @p argv, falling back to
 * defaultThreads(). A malformed or missing value is a fatal user
 * error.
 */
unsigned threadsFromArgs(int argc, char **argv);

/**
 * Resolve the bench-timing JSON path from `--bench-json <path>` /
 * `--bench-json=<path>` in @p argv, falling back to EAAO_BENCH_JSON.
 * nullopt when neither is given (timing disabled); an empty value is
 * a fatal user error.
 */
std::optional<std::string> benchJsonFromArgs(int argc, char **argv);

/**
 * Resolve the Chrome trace output path from `--trace-json <path>` /
 * `--trace-json=<path>`, falling back to EAAO_TRACE_JSON. nullopt when
 * neither is given (tracing disabled); an empty value is a fatal user
 * error.
 */
std::optional<std::string> traceJsonFromArgs(int argc, char **argv);

/**
 * Resolve the metrics output path from `--metrics-json <path>` /
 * `--metrics-json=<path>`, falling back to EAAO_METRICS_JSON. nullopt
 * when neither is given (metrics disabled); an empty value is a fatal
 * user error.
 */
std::optional<std::string> metricsJsonFromArgs(int argc, char **argv);

} // namespace eaao::support

#endif // EAAO_SUPPORT_OPTIONS_HPP
