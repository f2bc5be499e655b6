/**
 * @file
 * Scenario fuzzer driver.
 *
 * Generates seeded random scenarios (src/testkit/scenario.hpp) and
 * checks the invariant oracles (src/testkit/invariants.hpp) on each,
 * fanning scenario batches over a thread pool, until a time budget or
 * scenario cap is exhausted. On the first violation the scenario is
 * shrunk to a minimal reproducer and written as a replay file; the
 * process exits 1. `--replay FILE` re-runs a replay file under the full
 * oracle suite instead of fuzzing.
 *
 * Usage:
 *   fuzz_scenarios [--seed S] [--time-budget SECONDS]
 *                  [--max-scenarios N] [--threads N]
 *                  [--verify-every N] [--snapshot-every N]
 *                  [--inject-fault K] [--out DIR] [--replay FILE]
 *                  [--fork-at B] [--forks N] [--fork-budget M]
 *
 * Scenario i is a pure function of (seed, i): a campaign is
 * reproducible from its seed regardless of thread count or budget.
 * `--inject-fault K` forces OrchestratorConfig::fault_injection = K
 * into every scenario — the mutation self-test of docs/testing.md: the
 * fuzzer must catch the planted bug and shrink it to a small replay.
 *
 * `--fork-at B` switches to time-travel mode: scenario i becomes the
 * *prefix*, primed once to window barrier B (runScenarioToBarrier),
 * and `--forks N` divergent suffixes of up to `--fork-budget M` steps
 * each are branched from that single image and checked under the fork
 * oracles (prefix-consistency, fork-determinism, fork-vs-straight).
 * Failures shrink suffix-only — the prefix is the snapshot reference
 * — and the replay file carries `[timetravel]` metadata so
 * `--replay` re-primes and re-forks it. Fault 6 lives on this path.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "exp/trial_runner.hpp"
#include "support/options.hpp"
#include "testkit/invariants.hpp"
#include "testkit/scenario.hpp"
#include "testkit/shrink.hpp"

namespace {

using namespace eaao;

// Flag ranges: the planted faults are 1..6 (0 = none), and the thread,
// fork and barrier caps keep one command line from asking for an
// unbounded pool, fan-out or priming run.
constexpr std::uint64_t kMaxThreads = 256;
constexpr std::uint64_t kMaxFault = 6;
constexpr std::uint64_t kMaxForkAt = 1'000'000;
constexpr std::uint64_t kMaxForks = 1000;

struct Args
{
    std::uint64_t seed = 1;
    double time_budget_s = 60.0;
    std::uint64_t max_scenarios = ~0ULL;
    unsigned threads = 4;
    std::uint64_t verify_every = 25; //!< 0 disables the verify oracle
    std::uint64_t snapshot_every = 4; //!< 0 disables the snapshot oracle
    std::uint32_t inject_fault = 0;
    std::string out_dir = ".";
    std::string replay_path;
    std::uint32_t fork_at = ~0u;   //!< barrier window; ~0u = classic mode
    std::uint32_t forks = 4;       //!< suffixes branched per prefix image
    std::uint32_t fork_budget = 8; //!< max steps per generated suffix
};

/** `--help`: the usage text on stdout, exit 0. */
[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--seed S] [--time-budget SECONDS] [--max-scenarios N]\n"
        "          [--threads N] [--verify-every N]\n"
        "          [--snapshot-every N] [--inject-fault K]\n"
        "          [--out DIR] [--replay FILE]\n"
        "          [--fork-at B] [--forks N] [--fork-budget M]\n",
        argv0);
    std::exit(0);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    // Bad input exits 2 with one stderr line: an unknown flag, a flag
    // without its value, or a value that does not parse.
    const auto refuse = [](const char *what, const char *arg) {
        std::fprintf(stderr, "fuzz_scenarios: %s %s\n", what, arg);
        std::exit(2);
    };
    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            refuse("missing value for", argv[i]);
        return argv[++i];
    };
    // Integer flags parse strictly (support::uintFlag): a value that is
    // not all digits, or is out of range, exits 2 with one line.
    constexpr std::uint64_t kAny = ~0ULL;
    const auto integer = [&](int &i, std::uint64_t lo, std::uint64_t hi) {
        const char *flag = argv[i];
        return support::uintFlag(flag, value(i), lo, hi);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--seed") == 0)
            args.seed = integer(i, 0, kAny);
        else if (std::strcmp(arg, "--time-budget") == 0)
            args.time_budget_s = support::secondsFlag(arg, value(i));
        else if (std::strcmp(arg, "--max-scenarios") == 0)
            args.max_scenarios = integer(i, 1, kAny);
        else if (std::strcmp(arg, "--threads") == 0)
            args.threads = static_cast<unsigned>(integer(i, 1, kMaxThreads));
        else if (std::strcmp(arg, "--verify-every") == 0)
            args.verify_every = integer(i, 0, kAny);
        else if (std::strcmp(arg, "--snapshot-every") == 0)
            args.snapshot_every = integer(i, 0, kAny);
        else if (std::strcmp(arg, "--inject-fault") == 0)
            args.inject_fault =
                static_cast<std::uint32_t>(integer(i, 0, kMaxFault));
        else if (std::strcmp(arg, "--out") == 0)
            args.out_dir = value(i);
        else if (std::strcmp(arg, "--replay") == 0)
            args.replay_path = value(i);
        else if (std::strcmp(arg, "--fork-at") == 0)
            args.fork_at =
                static_cast<std::uint32_t>(integer(i, 0, kMaxForkAt));
        else if (std::strcmp(arg, "--forks") == 0)
            args.forks = static_cast<std::uint32_t>(integer(i, 1, kMaxForks));
        else if (std::strcmp(arg, "--fork-budget") == 0)
            args.fork_budget =
                static_cast<std::uint32_t>(integer(i, 1, kMaxForks));
        else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0)
            usage(argv[0]);
        else
            refuse("unknown flag", arg);
    }
    return args;
}

/** Oracle selection for scenario @p index of the campaign. */
testkit::InvariantOptions
oracleOptions(const Args &args, std::uint64_t index)
{
    testkit::InvariantOptions opts;
    opts.threads = args.threads > 1 ? args.threads : 4;
    // The verify oracle costs a covert-channel campaign; sample it.
    opts.check_verify =
        args.verify_every != 0 && index % args.verify_every == 0;
    // The snapshot oracle costs several extra sharded runs; sample it.
    opts.check_snapshot =
        args.snapshot_every != 0 && index % args.snapshot_every == 0;
    return opts;
}

std::string
describe(const std::vector<testkit::Violation> &violations)
{
    std::ostringstream out;
    for (const testkit::Violation &v : violations)
        out << "  [" << v.oracle << "] " << v.detail << "\n";
    return out.str();
}

int
replay(const Args &args)
{
    testkit::Scenario sc;
    try {
        sc = testkit::Scenario::fromSpec(
            campaign::CampaignSpec::load(args.replay_path));
    } catch (const campaign::SpecError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (args.inject_fault != 0)
        sc.fault = args.inject_fault;

    // Replay runs the complete oracle suite, verify included.
    testkit::InvariantOptions opts;
    opts.threads = args.threads > 1 ? args.threads : 4;
    opts.check_verify = true;
    opts.check_snapshot = true;
    const std::vector<testkit::Violation> violations =
        testkit::checkInvariants(sc, opts);
    if (violations.empty()) {
        std::printf("replay %s: all invariants hold\n",
                    args.replay_path.c_str());
        return 0;
    }
    std::printf("replay %s: %zu violation(s)\n%s",
                args.replay_path.c_str(), violations.size(),
                describe(violations).c_str());
    return 1;
}

/** Shrink a failing scenario and write the reproducer replay file. */
int
reportFailure(const Args &args, const testkit::Scenario &failing,
              std::uint64_t index,
              const std::vector<testkit::Violation> &violations)
{
    std::printf("scenario %llu FAILED (%zu violation(s)):\n%s",
                static_cast<unsigned long long>(index), violations.size(),
                describe(violations).c_str());

    const testkit::InvariantOptions opts = oracleOptions(args, index);
    const testkit::FailurePredicate still_fails =
        [&opts](const testkit::Scenario &candidate) {
            return !testkit::checkInvariants(candidate, opts).empty();
        };
    std::printf("shrinking...\n");
    const testkit::ShrinkResult shrunk =
        testkit::shrink(failing, still_fails);
    std::printf("shrunk to %zu step(s), %zu service(s), %zu account(s) "
                "after %u attempts\n",
                shrunk.scenario.steps.size(), shrunk.scenario.services.size(),
                shrunk.scenario.accounts.size(), shrunk.attempts);

    std::ostringstream path;
    path << args.out_dir << "/repro-seed" << args.seed << "-" << index
         << ".scenario";
    std::ofstream out(path.str());
    out << shrunk.scenario.serialize();
    out.close();
    std::printf("reproducer written to %s\n", path.str().c_str());
    std::printf("replay with: fuzz_scenarios --replay %s\n",
                path.str().c_str());
    return 1;
}

/**
 * Shrink a failing time-travel fork suffix-only (the cached prime
 * stays valid across every candidate — suffix edits never touch the
 * prefix the image hashes) and write the reproducer replay file.
 */
int
reportForkFailure(const Args &args, const testkit::Scenario &failing,
                  std::uint64_t index, std::uint32_t fork,
                  const testkit::TimeTravelPrime &prime,
                  const std::vector<testkit::Violation> &violations)
{
    std::printf("scenario %llu fork %u FAILED (%zu violation(s)):\n%s",
                static_cast<unsigned long long>(index), fork,
                violations.size(), describe(violations).c_str());

    const testkit::InvariantOptions opts = oracleOptions(args, index);
    const testkit::FailurePredicate still_fails =
        [&opts, &prime](const testkit::Scenario &candidate) {
            return !testkit::checkTimeTravelForks(candidate, opts, &prime)
                        .empty();
        };
    std::printf("shrinking (suffix-only)...\n");
    const testkit::ShrinkResult shrunk =
        testkit::shrink(failing, still_fails);
    std::printf("shrunk to %zu suffix step(s) after %u attempts\n",
                shrunk.scenario.steps.size() -
                    shrunk.scenario.tt_prefix_steps,
                shrunk.attempts);

    std::ostringstream path;
    path << args.out_dir << "/repro-seed" << args.seed << "-" << index
         << "-fork" << fork << ".scenario";
    std::ofstream out(path.str());
    out << shrunk.scenario.serialize();
    out.close();
    std::printf("reproducer written to %s\n", path.str().c_str());
    std::printf("replay with: fuzz_scenarios --replay %s\n",
                path.str().c_str());
    return 1;
}

/**
 * Time-travel mode: prime each prefix to the barrier once, then
 * branch --forks divergent suffixes from the one image — the
 * `--forked-storms` fast path under the fork oracles.
 */
int
fuzzForks(const Args &args)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.time_budget_s));

    std::uint64_t index = 0;
    std::uint64_t forks_checked = 0;
    while (index < args.max_scenarios && Clock::now() < deadline) {
        testkit::Scenario prefix =
            testkit::generateScenario(args.seed, index);
        if (args.inject_fault != 0)
            prefix.fault = args.inject_fault;

        const testkit::InvariantOptions opts = oracleOptions(args, index);

        // Prime once per index on the composed-empty-suffix scenario;
        // every fork of this index branches from the same image.
        const testkit::Scenario primed_sc =
            testkit::composeTimeTravel(prefix, {}, args.fork_at);
        testkit::TimeTravelPrime prime;
        std::string error;
        if (!testkit::primeTimeTravel(primed_sc, opts, prime, error)) {
            std::printf("scenario %llu FAILED: prime to barrier %u: %s\n",
                        static_cast<unsigned long long>(index), args.fork_at,
                        error.c_str());
            return 1;
        }

        for (std::uint32_t fork = 0; fork < args.forks; ++fork) {
            const testkit::Scenario sc = testkit::composeTimeTravel(
                prefix,
                testkit::generateSuffixSteps(args.seed, index, fork, prefix,
                                             args.fork_budget),
                args.fork_at);
            const std::vector<testkit::Violation> violations =
                testkit::checkTimeTravelForks(sc, opts, &prime);
            if (!violations.empty())
                return reportForkFailure(args, sc, index, fork, prime,
                                         violations);
            ++forks_checked;
            if (Clock::now() >= deadline)
                break;
        }

        ++index;
        if (index % 16 == 0) {
            std::printf("primed %llu prefixes, checked %llu forks...\n",
                        static_cast<unsigned long long>(index),
                        static_cast<unsigned long long>(forks_checked));
            std::fflush(stdout);
        }
    }
    std::printf("primed %llu prefixes, checked %llu forks: zero invariant "
                "violations\n",
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(forks_checked));
    return 0;
}

int
fuzz(const Args &args)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.time_budget_s));

    struct Outcome
    {
        std::vector<testkit::Violation> violations;
    };

    std::uint64_t next_index = 0;
    std::uint64_t checked = 0;
    while (next_index < args.max_scenarios && Clock::now() < deadline) {
        const std::uint64_t batch_start = next_index;
        const std::uint64_t batch = std::min<std::uint64_t>(
            args.threads * 2, args.max_scenarios - next_index);
        next_index += batch;

        // Scenarios of a batch are independent; fan the oracle checks
        // out one scenario per trial slot. Determinism of the harness
        // is immaterial here (any failure is re-derived from its
        // index), but it keeps campaign output stable across runs.
        const std::vector<Outcome> outcomes = exp::runTrials(
            batch, args.seed,
            [&](exp::TrialContext &ctx) -> Outcome {
                const std::uint64_t index = batch_start + ctx.index;
                testkit::Scenario sc =
                    testkit::generateScenario(args.seed, index);
                if (args.inject_fault != 0)
                    sc.fault = args.inject_fault;
                return Outcome{
                    testkit::checkInvariants(sc, oracleOptions(args, index))};
            },
            args.threads);

        for (std::uint64_t i = 0; i < batch; ++i) {
            ++checked;
            if (outcomes[i].violations.empty())
                continue;
            const std::uint64_t index = batch_start + i;
            testkit::Scenario sc = testkit::generateScenario(args.seed, index);
            if (args.inject_fault != 0)
                sc.fault = args.inject_fault;
            return reportFailure(args, sc, index, outcomes[i].violations);
        }
        if (batch_start / 64 != next_index / 64) {
            std::printf("checked %llu scenarios...\n",
                        static_cast<unsigned long long>(checked));
            std::fflush(stdout);
        }
    }
    std::printf("checked %llu scenarios: zero invariant violations\n",
                static_cast<unsigned long long>(checked));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (!args.replay_path.empty())
        return replay(args);
    if (args.fork_at != ~0u)
        return fuzzForks(args);
    return fuzz(args);
}
