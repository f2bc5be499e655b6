/**
 * @file
 * Campaign-scale macro-benchmark over the orchestrator's hot paths.
 *
 * One trial drives a single data center through the three workloads
 * the incremental indexes were built for:
 *
 *  1. a priming phase (repeated large launches with disconnects in
 *     between) that hammers cold/helper placement,
 *  2. a routing storm (tens of thousands of requests against a large
 *     active pool with concurrency > 1) with periodic account-spend
 *     polls, and
 *  3. a verification pass whose uniform fingerprint keys force the
 *     oversized-group recursive-resolution path.
 *
 * `--legacy` re-runs the identical workload with
 * `OrchestratorConfig::reference_scan` set, i.e. on the retained
 * pre-index linear-scan decision paths. Both modes make byte-identical
 * decisions, so stdout is the same either way (and for any `--threads`
 * count); only the `--bench-json` record differs — its bench name is
 * `macro_campaign` or `macro_campaign_legacy`. CI compares the two
 * wall-clock records on the same machine (the speedup gate) and the
 * new-path record against the committed BENCH_BASELINE.json (the
 * workload-drift gate); see tools/compare_benchmarks.py and
 * docs/performance.md.
 *
 * `--sharded` instead drives ONE intra-trial-parallel campaign on the
 * sharded platform (faas::ShardedPlatform, docs/sharding.md): a
 * 100k-host fleet partitioned into 16 lanes, one pinned account per
 * lane, each priming a pool and then absorbing a routing storm —
 * 10M+ requests total by default (`--hosts` / `--requests` resize it,
 * `--prime-rounds` deepens the priming phase). stdout and every total
 * are byte-identical for any `--threads` count (the lane grouping);
 * CI byte-diffs --threads 1 against 8 and gates the grouped wall
 * clock against the single-group record (bench names
 * `macro_campaign_sharded` vs `macro_campaign_sharded_s1`).
 *
 * Checkpoint modes (each needs --sharded, and they exclude each
 * other; docs/checkpoint.md):
 *
 *  --checkpoint FILE       run the campaign, capture an eaao-snap image
 *                          at the last priming barrier, write it to
 *                          FILE (a `checkpoint: ...` note on stderr),
 *                          and finish normally — stdout is the
 *                          straight-through reference.
 *  --from-checkpoint FILE  restore FILE into a fresh platform and run
 *                          only the storm. stdout is byte-identical to
 *                          the --checkpoint run's for any grouping; a
 *                          truncated/corrupt/newer-format file exits 2
 *                          before anything reaches stdout.
 *  --forked-storms N       prime once, capture in memory, then restore
 *                          + storm N times into ONE reused platform
 *                          (the in-memory fast path; bench name
 *                          `macro_campaign_forked`).
 *  --straight-storms N     run the full campaign N times from scratch
 *                          (bench name `macro_campaign_straight`).
 *
 * --forked-storms and --straight-storms print byte-identical stdout,
 * and CI gates their amortized wall clocks: with priming the dominant
 * cost, N forked storms must be >= 3x faster than N straight runs
 * (tools/compare_benchmarks.py --assert-speedup).
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "channel/covert.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "faas/sharded.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"
#include "stats/summary.hpp"
#include "support/bench_timer.hpp"
#include "support/options.hpp"

namespace {

constexpr std::size_t kTrials = 4;
constexpr std::size_t kServices = 4;
constexpr std::uint32_t kLaunchSize = 500;
constexpr std::size_t kPrimeRounds = 3;
constexpr std::uint32_t kStormPool = 700;
constexpr std::uint32_t kMaxConcurrency = 4;
constexpr std::uint64_t kStormRequests = 60000;
constexpr std::uint64_t kSpendPollEvery = 64;
constexpr std::uint32_t kVerifyInstances = 300;

struct TrialMetrics
{
    std::size_t instances_created = 0;
    std::uint64_t requests_routed = 0;
    std::uint64_t spend_polls = 0;
    double spend_poll_sum_usd = 0.0;
    double final_spend_usd = 0.0;
    std::size_t clusters = 0;
    std::uint64_t group_tests = 0;
};

TrialMetrics
runTrial(std::uint64_t seed, bool legacy)
{
    using namespace eaao;

    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.seed = seed;
    cfg.orchestrator.reference_scan = legacy;
    faas::Platform platform(cfg);
    faas::Orchestrator &orch = platform.orchestrator();
    const auto acct = platform.createAccount(0);

    TrialMetrics m;

    // ---- 1. Priming: repeated launches build hotness and exercise
    //         the cold-base and hot-helper placement paths. ----
    std::vector<faas::ServiceId> svcs;
    for (std::size_t s = 0; s < kServices; ++s)
        svcs.push_back(platform.deployService(acct, faas::ExecEnv::Gen1));
    for (std::size_t round = 0; round < kPrimeRounds; ++round) {
        for (const auto svc : svcs) {
            platform.connect(svc, kLaunchSize);
            platform.advance(sim::Duration::minutes(1));
            platform.disconnectAll(svc);
        }
        platform.advance(sim::Duration::minutes(4));
    }

    // ---- 2. Routing storm against a large active pool, with
    //         periodic spend polls. One multi-hour request pins each
    //         pool instance at in_flight >= 1 so none of them idles
    //         out mid-storm: every short request is routed against the
    //         full pool, which is exactly the per-request cost the
    //         routing index removes. ----
    const auto front = svcs.front();
    orch.setMaxConcurrency(front, kMaxConcurrency);
    platform.connect(front, kStormPool);
    for (std::uint32_t p = 0; p < kStormPool; ++p)
        orch.routeRequest(front, sim::Duration::hours(2));
    for (std::uint64_t r = 0; r < kStormRequests; ++r) {
        const double service_s =
            0.05 + 0.01 * static_cast<double>(r % 7);
        orch.routeRequest(front, sim::Duration::fromSecondsF(service_s));
        ++m.requests_routed;
        if (r % kSpendPollEvery == 0) {
            m.spend_poll_sum_usd += platform.accountSpendUsd(acct);
            ++m.spend_polls;
        }
        if (r % 16 == 15)
            platform.advance(sim::Duration::fromSecondsF(0.02));
    }
    platform.advance(sim::Duration::minutes(1));

    // ---- 3. Verification with uniform fingerprint keys: the whole
    //         set lands in one oversized group, driving the recursive
    //         resolution (arena) path end to end. ----
    const auto held = platform.connect(svcs[1], kVerifyInstances);
    const std::vector<std::uint64_t> fp_keys(held.size(), 7);
    channel::RngChannel chan(platform);
    const core::VerifyResult verdict =
        core::verifyScalable(platform, chan, held, fp_keys, {});
    m.clusters = verdict.clusterCount();
    m.group_tests = verdict.group_tests;

    m.instances_created = orch.instanceCount();
    m.final_spend_usd = platform.accountSpendUsd(acct);
    return m;
}

// ---- Sharded campaign (--sharded) ----

constexpr std::uint32_t kShardedHosts = 100'000;
constexpr std::uint64_t kShardedRequests = 10'400'000;
constexpr std::uint32_t kShardedPool = 650;
constexpr std::uint32_t kShardedPrimeRounds = 2;
constexpr std::uint32_t kShardedPrimeLaunch = 300;

// Flag ranges. Storm requests stream through the window loop, so only
// time grows with them; open-loop instants are all materialized up
// front, so that cap bounds memory (~150 bytes per request).
constexpr std::uint32_t kMaxHosts = 1'000'000;
constexpr std::uint64_t kMaxRequests = 1'000'000'000;
constexpr std::uint64_t kMaxOpenLoopRequests = 10'000'000;
constexpr std::uint32_t kMaxPrimeRounds = 1000;
constexpr std::uint64_t kMaxStorms = 1000;

/**
 * One lane's script: prime a service hot, pin a concurrency-4 pool
 * with multi-hour requests, then run the storm as a single RouteStorm
 * op (requests are generated inside the window loop, so 10M+ of them
 * never materialize as individual ops). @p prime_traffic > 0 adds a
 * keep-warm burst of that many requests after each priming round's
 * disconnect — they reuse the just-launched warm instances, so they
 * cost priming CPU without minting new instance records.
 */
void
laneScript(std::vector<eaao::faas::ShardOp> &ops,
           eaao::faas::ServiceId svc, std::uint64_t storm_requests,
           std::uint32_t prime_rounds, std::uint64_t prime_traffic)
{
    using namespace eaao;
    using Kind = faas::ShardOp::Kind;

    sim::SimTime t;
    std::uint32_t step = 0;
    const auto push = [&](Kind kind) -> faas::ShardOp & {
        faas::ShardOp op;
        op.kind = kind;
        op.at = t;
        op.step = step++;
        op.service = svc;
        ops.push_back(op);
        return ops.back();
    };

    for (std::uint32_t round = 0; round < prime_rounds; ++round) {
        push(Kind::Connect).a = kShardedPrimeLaunch;
        t = t + sim::Duration::minutes(1);
        push(Kind::Disconnect);
        if (prime_traffic > 0) {
            faas::ShardOp &warm = push(Kind::RouteStorm);
            warm.n = prime_traffic;
            warm.dur = sim::Duration::fromSecondsF(0.05);
            warm.dur_step = sim::Duration::fromSecondsF(0.01);
            warm.dur_mod = 7;
            warm.gap_every = 16;
            warm.gap = sim::Duration::fromSecondsF(0.02);
        }
        t = t + sim::Duration::minutes(4);
    }

    push(Kind::SetConcurrency).a = kMaxConcurrency;
    push(Kind::Connect).a = kShardedPool;
    for (std::uint32_t p = 0; p < kShardedPool; ++p) {
        faas::ShardOp &pin = push(Kind::Route);
        pin.sub = p;
        pin.dur = sim::Duration::hours(2);
    }

    faas::ShardOp &storm = push(Kind::RouteStorm);
    storm.n = storm_requests;
    storm.dur = sim::Duration::fromSecondsF(0.05);
    storm.dur_step = sim::Duration::fromSecondsF(0.01);
    storm.dur_mod = 7;
    storm.gap_every = 16;
    storm.gap = sim::Duration::fromSecondsF(0.02);
    storm.spend_every = kSpendPollEvery;
}

/** Flags of the --sharded family (campaign shape + checkpoint modes). */
struct ShardedArgs
{
    unsigned threads = 1;
    std::uint32_t hosts = kShardedHosts;
    std::uint64_t requests = kShardedRequests;
    std::uint32_t prime_rounds = kShardedPrimeRounds;
    std::uint64_t prime_traffic = 0;
    std::uint64_t forked_storms = 0;
    std::uint64_t straight_storms = 0;
    const char *checkpoint = nullptr;
    const char *from_checkpoint = nullptr;
};

eaao::faas::ShardedConfig
shardedConfig(const ShardedArgs &a)
{
    using namespace eaao;
    faas::ShardedConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.profile.host_count = a.hosts;
    cfg.seed = 4242;
    cfg.threads = a.threads;
    return cfg;
}

/** Create the per-lane accounts/services and assemble their scripts. */
std::vector<eaao::faas::ShardOp>
buildCampaign(eaao::faas::ShardedPlatform &platform, const ShardedArgs &a,
              eaao::sim::SimTime &horizon)
{
    using namespace eaao;
    const std::uint32_t lanes = platform.laneCount();
    const std::uint64_t per_lane = a.requests / lanes;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const auto acct = platform.createAccount(lane);
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        laneScript(ops, svc, per_lane, a.prime_rounds, a.prime_traffic);
        horizon = ops.back().at +
                  sim::Duration::fromSecondsF(0.02) *
                      static_cast<std::int64_t>(per_lane / 16) +
                  sim::Duration::minutes(10);
    }
    return ops;
}

eaao::faas::ShardedTotals
runStraight(const ShardedArgs &a)
{
    using namespace eaao;
    faas::ShardedPlatform platform(shardedConfig(a));
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = buildCampaign(platform, a, horizon);
    platform.run(std::move(ops), horizon);
    return platform.totals();
}

/**
 * Barrier index of the checkpoint: the last window of the priming
 * phase. Every lane's storm ops sit at prime_rounds * 5 minutes, so
 * capturing (pre-fold; docs/checkpoint.md) at the barrier just before
 * means a restored run re-executes only the storm.
 */
std::uint32_t
captureWindow(const ShardedArgs &a, const eaao::faas::ShardedConfig &cfg)
{
    const std::int64_t prime_ns = eaao::sim::Duration::minutes(5).ns() *
                                  static_cast<std::int64_t>(a.prime_rounds);
    const std::int64_t w = prime_ns / cfg.window.ns();
    return w > 1 ? static_cast<std::uint32_t>(w - 1) : 0;
}

/**
 * Run the campaign with a snapshot captured at the priming barrier.
 * When @p finish is true the run continues to completion (stdout
 * parity with runStraight) and @p totals is filled in; otherwise the
 * platform is abandoned at the capture point — the forks redo the
 * storm from the returned image.
 */
std::vector<std::uint8_t>
primeAndCapture(const ShardedArgs &a, bool finish,
                eaao::faas::ShardedTotals *totals)
{
    using namespace eaao;
    const faas::ShardedConfig cfg = shardedConfig(a);
    faas::ShardedPlatform platform(cfg);
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = buildCampaign(platform, a, horizon);
    const std::uint32_t capture_at = captureWindow(a, cfg);
    std::vector<std::uint8_t> image;
    platform.beginRun(std::move(ops), horizon);
    std::uint32_t window = 0;
    while (platform.running()) {
        platform.advanceWindow();
        if (image.empty() && window >= capture_at) {
            image = snap::Snapshotter::capture(platform);
            if (!finish)
                return image;
        }
        platform.completeWindow();
        ++window;
    }
    if (image.empty()) {
        std::fprintf(stderr,
                     "macro_campaign: run finished before the capture "
                     "barrier (window %u); raise --prime-rounds\n",
                     capture_at);
        std::exit(2);
    }
    if (totals != nullptr)
        *totals = platform.totals();
    return image;
}

// stdout of every sharded mode is built from these two blocks only, so
// --checkpoint, --from-checkpoint and the plain run byte-match for any
// grouping, and --forked-storms N byte-matches --straight-storms N.
void
printShardedHeader(const ShardedArgs &a)
{
    std::printf("=== macro_campaign --sharded: window-barrier lanes "
                "(us-east1, %u hosts, %llu requests) ===\n\n",
                a.hosts, static_cast<unsigned long long>(a.requests));
}

void
printTotals(const eaao::faas::ShardedTotals &t)
{
    std::printf("routed %llu requests across %u windows; created %llu "
                "instances\n",
                static_cast<unsigned long long>(t.routed), t.windows,
                static_cast<unsigned long long>(t.instances));
    std::printf("spend checksum %.2f USD; final spend %.2f USD\n",
                t.spend_checksum, t.final_spend_usd);
    std::printf("events scheduled=%llu processed=%llu cancelled=%llu "
                "pending=%llu\n",
                static_cast<unsigned long long>(t.events_scheduled),
                static_cast<unsigned long long>(t.events_processed),
                static_cast<unsigned long long>(t.events_cancelled),
                static_cast<unsigned long long>(t.events_pending));
}

int
checkpointMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    support::BenchTimer timer("macro_campaign_checkpoint", a.threads,
                              /*seed=*/4242);
    faas::ShardedTotals t;
    const std::vector<std::uint8_t> image =
        primeAndCapture(a, /*finish=*/true, &t);
    std::string error;
    if (!snap::Snapshotter::writeFile(a.checkpoint, image, error)) {
        std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
        return 2;
    }
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    std::fprintf(stderr, "checkpoint: %zu bytes at window %u -> %s\n",
                 image.size(), captureWindow(a, shardedConfig(a)),
                 a.checkpoint);
    printShardedHeader(a);
    printTotals(t);
    return 0;
}

int
fromCheckpointMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    std::vector<std::uint8_t> image;
    std::string error;
    if (!snap::Snapshotter::readFile(a.from_checkpoint, image, error)) {
        std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
        return 2;
    }
    support::BenchTimer timer("macro_campaign_from_checkpoint", a.threads,
                              /*seed=*/4242);
    faas::ShardedTotals t;
    {
        faas::ShardedPlatform platform(shardedConfig(a));
        if (!snap::Snapshotter::restore(image, platform, error)) {
            std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
            return 2;
        }
        platform.resumeRun();
        t = platform.totals();
    }
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    printShardedHeader(a);
    printTotals(t);
    return 0;
}

int
forkedMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    std::vector<faas::ShardedTotals> runs;
    support::BenchTimer timer("macro_campaign_forked", a.threads,
                              /*seed=*/4242);
    {
        const std::vector<std::uint8_t> image =
            primeAndCapture(a, /*finish=*/false, nullptr);
        // One platform absorbs every fork: restore() replaces its state
        // wholesale, so re-restoring into the just-finished platform is
        // the in-memory fast path (no per-fork construction).
        faas::ShardedPlatform platform(shardedConfig(a));
        std::string error;
        // Validate (and checksum) the image once; every fork restores
        // from the parsed reader.
        snap::SnapshotReader reader;
        if (!reader.parse(image, error, a.threads)) {
            std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
            return 2;
        }
        for (std::uint64_t i = 0; i < a.forked_storms; ++i) {
            if (!snap::Snapshotter::restore(reader, platform, error)) {
                std::fprintf(stderr, "macro_campaign: %s\n", error.c_str());
                return 2;
            }
            platform.resumeRun();
            runs.push_back(platform.totals());
        }
    }
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    printShardedHeader(a);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::printf("storm %zu:\n", i);
        printTotals(runs[i]);
    }
    return 0;
}

int
straightMain(const ShardedArgs &a, int argc, char **argv)
{
    using namespace eaao;
    std::vector<faas::ShardedTotals> runs;
    support::BenchTimer timer("macro_campaign_straight", a.threads,
                              /*seed=*/4242);
    for (std::uint64_t i = 0; i < a.straight_storms; ++i)
        runs.push_back(runStraight(a));
    support::maybeWriteBenchJson(argc, argv, timer.stop());
    printShardedHeader(a);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        std::printf("storm %zu:\n", i);
        printTotals(runs[i]);
    }
    return 0;
}

/**
 * `--open-loop`: the arrival-storm kernel duel (docs/load-engine.md).
 *
 * Sixteen independent open-loop Poisson streams (2500 rps each) have
 * their instants materialized a window at a time — the barrier-clamped
 * generation pattern, scheduled stream-at-a-time as ordinary events —
 * so the kernel holds a full window of pending arrivals (~2.4M at the
 * default rate) and, crucially, sees each lane's burst land in the
 * MIDDLE of the pending set: only the first lane's pushes arrive in
 * globally sorted order. The sharded platform no longer schedules its
 * arrivals this way (they merge into each lane queue's arrival run,
 * docs/event-kernel.md), so the duel measures the kernel's scheduling
 * path only, not the loadgen program's arrival path. Each arrival
 * fires a completion ~50-250 ms out plus a 30 s timeout guard the
 * completion cancels — the reap pattern the kernel documents as its
 * dominant workload. A cancelled guard costs the heap kernel a full
 * depth-of-millions sift-down when its stale entry surfaces; the wheel
 * kernel drops it at bucket-dump time without touching the heap. The
 * identical storm runs on the wheel-backed kernel and on the pure-heap kernel
 * (`use_wheel = false`); both must agree on every count (the wheel
 * never reorders pops), stdout prints one digest, and the two
 * `--bench-json` records (`wheel_arrivals` / `heap_arrivals`) feed
 * CI's same-machine >= 2x speedup gate.
 */
int
openLoopMain(int argc, char **argv)
{
    using namespace eaao;
    std::uint64_t requests = 4'000'000;
    for (int i = 1; i < argc - 1; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0)
            requests = support::uintFlag(argv[i], argv[i + 1], 1,
                                         kMaxOpenLoopRequests);
    }
    constexpr std::size_t kStreams = 16;
    const double rate_rps = 40000.0;
    const sim::Duration window = sim::Duration::seconds(120);

    faas::ArrivalSpec spec;
    spec.kind = faas::ArrivalKind::Poisson;
    spec.rate_rps = rate_rps / static_cast<double>(kStreams);
    spec.span = sim::Duration::fromSecondsF(
        static_cast<double>(requests) / rate_rps);
    spec.mean_service_time = sim::Duration::millis(100);
    std::vector<std::vector<sim::SimTime>> lanes(kStreams);
    std::size_t arrivals = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
        faas::ArrivalCursor cursor(spec, sim::Rng(4242).fork(s),
                                   sim::SimTime());
        cursor.generateUntil(sim::SimTime() + spec.span, lanes[s]);
        arrivals += lanes[s].size();
    }

    struct Digest
    {
        std::uint64_t fired = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t processed = 0;
        std::uint64_t cancelled = 0;
        std::int64_t end_ns = 0;
    };
    const auto runArm = [&](bool use_wheel) {
        Digest d;
        sim::EventQueue eq(sim::SimTime(), use_wheel);
        eq.reserve(arrivals + arrivals / 2);
        std::array<std::size_t, kStreams> next{};
        sim::SimTime stop;
        bool more = true;
        while (more) {
            more = false;
            stop = stop + window;
            for (std::size_t s = 0; s < kStreams; ++s) {
                const auto &lane = lanes[s];
                std::size_t &n = next[s];
                for (; n < lane.size() && lane[n] < stop; ++n) {
                    const auto complete = sim::Duration::millis(
                        50 + static_cast<int>(
                                 sim::mix64((s << 32 | n) ^ 0x51ab) %
                                 200));
                    eq.scheduleAt(
                        lane[n], [&eq, &d, complete] {
                            const sim::EventId guard = eq.scheduleAfter(
                                sim::Duration::seconds(30),
                                [&d] { ++d.timeouts; });
                            eq.scheduleAfter(complete,
                                             [&eq, &d, guard] {
                                                 eq.cancel(guard);
                                                 ++d.fired;
                                             });
                        });
                }
                more = more || n < lane.size();
            }
            eq.runUntil(stop);
        }
        eq.run();
        d.processed = eq.processed();
        d.cancelled = eq.cancelled();
        d.end_ns = eq.now().ns();
        return d;
    };

    // Two interleaved repetitions per arm, heap first: the gate
    // (tools/compare_benchmarks.py --assert-speedup) takes the median
    // per bench name, so a noisy neighbor or cold-start hiccup in any
    // single storm cannot flip the verdict.
    constexpr int kReps = 2;
    Digest wheel;
    Digest heap;
    for (int rep = 0; rep < kReps; ++rep) {
        support::BenchTimer heap_timer("heap_arrivals", 1, /*seed=*/4242);
        heap = runArm(/*use_wheel=*/false);
        support::maybeWriteBenchJson(argc, argv, heap_timer.stop());

        support::BenchTimer wheel_timer("wheel_arrivals", 1,
                                        /*seed=*/4242);
        wheel = runArm(/*use_wheel=*/true);
        support::maybeWriteBenchJson(argc, argv, wheel_timer.stop());

        if (wheel.fired != heap.fired ||
            wheel.timeouts != heap.timeouts ||
            wheel.processed != heap.processed ||
            wheel.cancelled != heap.cancelled ||
            wheel.end_ns != heap.end_ns)
            break;
    }

    if (wheel.fired != heap.fired || wheel.timeouts != heap.timeouts ||
        wheel.processed != heap.processed ||
        wheel.cancelled != heap.cancelled ||
        wheel.end_ns != heap.end_ns) {
        std::fprintf(stderr,
                     "fatal: wheel and heap kernels diverged "
                     "(fired %llu/%llu, processed %llu/%llu)\n",
                     static_cast<unsigned long long>(wheel.fired),
                     static_cast<unsigned long long>(heap.fired),
                     static_cast<unsigned long long>(wheel.processed),
                     static_cast<unsigned long long>(heap.processed));
        return 1;
    }
    std::printf("=== macro_campaign: open-loop arrival storm "
                "(wheel vs heap kernel) ===\n\n");
    std::printf("arrivals %zu (%zu poisson streams, %.0f rps total, "
                "%.0f s span); completions %llu;\ntimeout guards "
                "cancelled %llu, expired %llu; events processed %llu; "
                "final\nvirtual time %.3f s; kernels agree\n",
                arrivals, kStreams, rate_rps,
                static_cast<double>(spec.span.ns()) / 1e9,
                static_cast<unsigned long long>(wheel.fired),
                static_cast<unsigned long long>(wheel.cancelled),
                static_cast<unsigned long long>(wheel.timeouts),
                static_cast<unsigned long long>(wheel.processed),
                static_cast<double>(wheel.end_ns) / 1e9);
    return 0;
}

int
shardedMain(int argc, char **argv)
{
    using namespace eaao;
    ShardedArgs a;
    a.threads = support::threadsFromArgs(argc, argv);
    for (int i = 1; i < argc - 1; ++i) {
        const char *flag = argv[i];
        const char *value = argv[i + 1];
        if (std::strcmp(flag, "--hosts") == 0)
            a.hosts = static_cast<std::uint32_t>(
                support::uintFlag(flag, value, 1, kMaxHosts));
        else if (std::strcmp(flag, "--requests") == 0)
            a.requests = support::uintFlag(flag, value, 0, kMaxRequests);
        else if (std::strcmp(flag, "--prime-rounds") == 0)
            a.prime_rounds = static_cast<std::uint32_t>(
                support::uintFlag(flag, value, 1, kMaxPrimeRounds));
        else if (std::strcmp(flag, "--prime-traffic") == 0)
            a.prime_traffic =
                support::uintFlag(flag, value, 0, kMaxRequests);
        else if (std::strcmp(flag, "--forked-storms") == 0)
            a.forked_storms = support::uintFlag(flag, value, 1, kMaxStorms);
        else if (std::strcmp(flag, "--straight-storms") == 0)
            a.straight_storms =
                support::uintFlag(flag, value, 1, kMaxStorms);
        else if (std::strcmp(flag, "--checkpoint") == 0)
            a.checkpoint = value;
        else if (std::strcmp(flag, "--from-checkpoint") == 0)
            a.from_checkpoint = value;
    }

    if (a.from_checkpoint != nullptr)
        return fromCheckpointMain(a, argc, argv);
    if (a.checkpoint != nullptr)
        return checkpointMain(a, argc, argv);
    if (a.forked_storms != 0)
        return forkedMain(a, argc, argv);
    if (a.straight_storms != 0)
        return straightMain(a, argc, argv);

    // stdout depends only on (hosts, requests, prime-rounds): the
    // sharded platform's totals are grouping-invariant, so any
    // --threads count byte-matches — the property CI's determinism
    // matrix diffs.
    printShardedHeader(a);

    support::BenchTimer timer(a.threads > 1 ? "macro_campaign_sharded"
                                            : "macro_campaign_sharded_s1",
                              a.threads, /*seed=*/4242);
    const faas::ShardedTotals t = runStraight(a);
    support::maybeWriteBenchJson(argc, argv, timer.stop());

    printTotals(t);
    return 0;
}

/** The three modes, as bits: a flag is valid in a set of them. */
enum Mode : unsigned
{
    kDefaultMode = 1u << 0, //!< neither --sharded nor --open-loop
    kShardedMode = 1u << 1,
    kOpenLoopMode = 1u << 2,
};

struct FlagSpec
{
    std::string_view name;
    bool takes_value;
    unsigned modes;  //!< Mode bits the flag applies to
    bool run_kind;   //!< one of the exclusive --sharded run kinds
};

constexpr std::array<FlagSpec, 13> kFlags = {{
    {"--sharded", false, kShardedMode, false},
    {"--open-loop", false, kOpenLoopMode, false},
    {"--legacy", false, kDefaultMode, false},
    {"--threads", true, kDefaultMode | kShardedMode, false},
    {"--bench-json", true, kDefaultMode | kShardedMode | kOpenLoopMode,
     false},
    {"--requests", true, kShardedMode | kOpenLoopMode, false},
    {"--hosts", true, kShardedMode, false},
    {"--prime-rounds", true, kShardedMode, false},
    {"--prime-traffic", true, kShardedMode, false},
    {"--checkpoint", true, kShardedMode, true},
    {"--from-checkpoint", true, kShardedMode, true},
    {"--forked-storms", true, kShardedMode, true},
    {"--straight-storms", true, kShardedMode, true},
}};

[[noreturn]] void
refuse(const std::string &message)
{
    std::fprintf(stderr, "macro_campaign: %s\n", message.c_str());
    std::exit(2);
}

/**
 * Return the mode the first --sharded / --open-loop selects. Exit 2
 * with one stderr line on an argument this binary does not take, on a
 * value flag with nothing after it, or on a flag of another mode — a
 * flag no mode reads would otherwise be ignored in silence. The
 * --sharded run kinds (--checkpoint, --from-checkpoint,
 * --forked-storms, --straight-storms) exclude each other the same
 * way. Each mode reads the flags it knows from argv itself; this check
 * runs first, so no work starts on a bad command line.
 */
Mode
checkArgs(int argc, char **argv)
{
    const auto spec = [](std::string_view arg) -> const FlagSpec * {
        for (const FlagSpec &f : kFlags) {
            if (f.name == arg)
                return &f;
        }
        return nullptr;
    };
    // Pass 1: every argument is known and every value is present.
    std::vector<const FlagSpec *> given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const FlagSpec *f = spec(arg);
        if (f == nullptr) {
            // --threads=N and --bench-json=F: the support:: readers
            // take the joined spelling too.
            const std::string name = arg.substr(0, arg.find('='));
            if (name != arg && (name == "--threads" || name == "--bench-json"))
                f = spec(name);
        } else if (f->takes_value && ++i >= argc) {
            refuse("missing value for " + arg);
        }
        if (f == nullptr)
            refuse("unknown flag " + arg);
        given.push_back(f);
    }
    // Pass 2: every flag belongs to the mode the first --sharded or
    // --open-loop selects, and at most one run kind is given.
    const FlagSpec *mode_flag = nullptr;
    for (const FlagSpec *f : given) {
        if (mode_flag == nullptr &&
            (f->name == "--sharded" || f->name == "--open-loop"))
            mode_flag = f;
    }
    const Mode mode = mode_flag != nullptr
                          ? static_cast<Mode>(mode_flag->modes)
                          : kDefaultMode;
    const FlagSpec *run_kind = nullptr;
    for (const FlagSpec *f : given) {
        const std::string name(f->name);
        if ((f->modes & mode) == 0) {
            if (mode_flag != nullptr)
                refuse(name + " does not apply to " +
                       std::string(mode_flag->name));
            refuse(name + ((f->modes & kOpenLoopMode) != 0
                               ? " needs --sharded or --open-loop"
                               : " needs --sharded"));
        }
        if (f->run_kind && run_kind != nullptr && run_kind != f)
            refuse(name + " does not apply to " +
                   std::string(run_kind->name));
        if (f->run_kind)
            run_kind = f;
    }
    return mode;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace eaao;
    const Mode mode = checkArgs(argc, argv);
    if (mode == kShardedMode)
        return shardedMain(argc, argv);
    if (mode == kOpenLoopMode)
        return openLoopMain(argc, argv);
    bool legacy = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--legacy") == 0)
            legacy = true;
    }
    const unsigned threads = support::threadsFromArgs(argc, argv);

    std::printf("=== macro_campaign: placement/routing/verification "
                "hot paths (us-east1, %zu trials) ===\n\n",
                kTrials);

    support::BenchTimer timer(
        legacy ? "macro_campaign_legacy" : "macro_campaign", threads,
        /*seed=*/4242);
    const std::vector<TrialMetrics> trials = exp::runTrials(
        kTrials, /*seed=*/4242,
        [legacy](exp::TrialContext &trial) {
            return runTrial(4242 + trial.index, legacy);
        },
        threads);
    support::maybeWriteBenchJson(argc, argv, timer.stop());

    const TrialMetrics &t = trials.front();
    std::printf("trial 0: created %zu instances; routed %llu requests "
                "(%llu spend polls,\nchecksum %.2f USD); final spend "
                "%.2f USD\n",
                t.instances_created,
                static_cast<unsigned long long>(t.requests_routed),
                static_cast<unsigned long long>(t.spend_polls),
                t.spend_poll_sum_usd, t.final_spend_usd);
    std::printf("trial 0: verified %u uniform-fingerprint instances "
                "into %zu clusters\n(%llu group tests)\n\n",
                kVerifyInstances, t.clusters,
                static_cast<unsigned long long>(t.group_tests));

    stats::OnlineStats created, spend, clusters, tests;
    for (const TrialMetrics &r : trials) {
        created.add(static_cast<double>(r.instances_created));
        spend.add(r.final_spend_usd);
        clusters.add(static_cast<double>(r.clusters));
        tests.add(static_cast<double>(r.group_tests));
    }
    std::printf("across %zu trials: instances %.1f (sd %.1f), spend "
                "%.2f USD (sd %.2f),\nclusters %.1f (sd %.1f), group "
                "tests %.1f (sd %.1f)\n",
                kTrials, created.mean(), created.stddev(), spend.mean(),
                spend.stddev(), clusters.mean(), clusters.stddev(),
                tests.mean(), tests.stddev());
    return 0;
}
