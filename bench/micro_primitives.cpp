/**
 * @file
 * Micro-benchmarks (google-benchmark) for the library's primitives:
 * the event kernel (schedule/step, schedule+cancel churn, an
 * orchestrator-shaped mix — each against a legacy map-backed queue for
 * comparison), fingerprint readings, quantization, covert-channel
 * group tests, scalable-vs-pairwise verification scaling, and
 * orchestrator placement throughput.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "channel/covert.hpp"
#include "core/fingerprint.hpp"
#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "faas/platform.hpp"
#include "faas/sharded.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"

namespace {

using namespace eaao;

/**
 * The pre-slab event queue (heap of entries + unordered_map of
 * std::function callbacks + tombstone set), kept here verbatim as the
 * baseline the kernel benchmarks compare against.
 */
class LegacyMapQueue
{
  public:
    using Callback = std::function<void()>;

    sim::SimTime now() const { return now_; }

    std::uint64_t
    scheduleAt(sim::SimTime when, Callback cb)
    {
        const std::uint64_t id = next_id_++;
        heap_.push(Entry{when, next_seq_++, id});
        callbacks_.emplace(id, std::move(cb));
        return id;
    }

    std::uint64_t
    scheduleAfter(sim::Duration delay, Callback cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    bool
    cancel(std::uint64_t id)
    {
        auto it = callbacks_.find(id);
        if (it == callbacks_.end())
            return false;
        callbacks_.erase(it);
        cancelled_.insert(id);
        return true;
    }

    void
    run()
    {
        while (!heap_.empty())
            step();
    }

    void
    runUntil(sim::SimTime horizon)
    {
        while (!heap_.empty() && heap_.top().when <= horizon)
            step();
        now_ = horizon;
    }

  private:
    struct Entry
    {
        sim::SimTime when;
        std::uint64_t seq;
        std::uint64_t id;
    };

    struct EntryLater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    step()
    {
        const Entry e = heap_.top();
        heap_.pop();
        if (cancelled_.erase(e.id))
            return;
        auto it = callbacks_.find(e.id);
        Callback cb = std::move(it->second);
        callbacks_.erase(it);
        now_ = e.when;
        cb();
    }

    sim::SimTime now_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_id_ = 1;
    std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_;
    std::unordered_set<std::uint64_t> cancelled_;
    std::unordered_map<std::uint64_t, Callback> callbacks_;
};

constexpr int kKernelEvents = 4096;

/** Precomputed op sequence, so the timed loop is pure queue work. */
struct KernelOps
{
    std::vector<sim::SimTime> at;        //!< absolute schedule times
    std::vector<sim::Duration> delay;    //!< relative schedule delays
    std::vector<sim::Duration> complete; //!< orchestrator completion delays
    std::vector<bool> cancel;            //!< cancel right after schedule?
    std::vector<std::uint32_t> slot;     //!< orchestrator-mix slot ids
};

KernelOps
makeKernelOps()
{
    KernelOps ops;
    for (int i = 0; i < kKernelEvents; ++i) {
        ops.at.push_back(sim::SimTime::fromNanos(
            static_cast<std::int64_t>(sim::mix64(i) % 1000000)));
        ops.delay.push_back(sim::Duration::minutes(
            2 + static_cast<int>(sim::mix64(i) % 13)));
        ops.complete.push_back(sim::Duration::millis(
            50 + static_cast<int>(sim::mix64(i ^ 0x51ab) % 200)));
        ops.cancel.push_back(sim::mix64(i ^ 0xbeef) % 16 != 0);
        ops.slot.push_back(
            static_cast<std::uint32_t>(sim::mix64(i) % 64));
    }
    return ops;
}

/** Schedule a batch at scattered times, then drain it. */
template <typename Queue>
void
scheduleStepWorkload(benchmark::State &state)
{
    const KernelOps ops = makeKernelOps();
    std::uint64_t fired = 0;
    for (auto _ : state) {
        Queue eq;
        for (int i = 0; i < kKernelEvents; ++i)
            eq.scheduleAt(ops.at[i], [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kKernelEvents);
}

void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    scheduleStepWorkload<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleStep);

void
BM_LegacyQueueScheduleStep(benchmark::State &state)
{
    scheduleStepWorkload<LegacyMapQueue>(state);
}
BENCHMARK(BM_LegacyQueueScheduleStep);

/**
 * The reap pattern (Obs 2): every idle transition schedules a reap
 * minutes out and nearly always cancels it again when the instance is
 * reused. Schedule+cancel dominates; almost nothing fires.
 */
template <typename Queue>
void
scheduleCancelChurnWorkload(benchmark::State &state)
{
    const KernelOps ops = makeKernelOps();
    const sim::Duration tick = sim::Duration::seconds(30);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        Queue eq;
        for (int i = 0; i < kKernelEvents; ++i) {
            const auto id =
                eq.scheduleAfter(ops.delay[i], [&fired] { ++fired; });
            if (ops.cancel[i])
                eq.cancel(id);
            if (i % 256 == 255)
                eq.runUntil(eq.now() + tick);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kKernelEvents);
}

void
BM_EventQueueScheduleCancelChurn(benchmark::State &state)
{
    scheduleCancelChurnWorkload<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleCancelChurn);

void
BM_LegacyQueueScheduleCancelChurn(benchmark::State &state)
{
    scheduleCancelChurnWorkload<LegacyMapQueue>(state);
}
BENCHMARK(BM_LegacyQueueScheduleCancelChurn);

/**
 * Orchestrator-shaped mix: per "request", a completion event that
 * fires, plus a reap event that is cancelled by the next request on
 * the same slot — interleaved with periodic horizon advances.
 */
template <typename Queue>
void
mixedOrchestratorWorkload(benchmark::State &state)
{
    constexpr int kSlots = 64;
    const KernelOps ops = makeKernelOps();
    const sim::Duration reap_delay = sim::Duration::minutes(4);
    const sim::Duration tick = sim::Duration::seconds(1);
    std::uint64_t completions = 0;
    for (auto _ : state) {
        Queue eq;
        std::uint64_t reap_ids[kSlots] = {};
        for (int i = 0; i < kKernelEvents; ++i) {
            const std::uint32_t slot = ops.slot[i];
            if (reap_ids[slot] != 0) {
                eq.cancel(reap_ids[slot]);
                reap_ids[slot] = 0;
            }
            eq.scheduleAfter(ops.complete[i],
                             [&completions] { ++completions; });
            reap_ids[slot] =
                eq.scheduleAfter(reap_delay, [&completions] {});
            if (i % 64 == 63)
                eq.runUntil(eq.now() + tick);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(completions);
    state.SetItemsProcessed(state.iterations() * kKernelEvents);
}

void
BM_EventQueueMixedOrchestrator(benchmark::State &state)
{
    mixedOrchestratorWorkload<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueMixedOrchestrator);

void
BM_LegacyQueueMixedOrchestrator(benchmark::State &state)
{
    mixedOrchestratorWorkload<LegacyMapQueue>(state);
}
BENCHMARK(BM_LegacyQueueMixedOrchestrator);

/**
 * Open-loop arrival storm (docs/load-engine.md): a deep backlog of
 * pre-materialized arrivals — the window-clamped generation pattern
 * leaves a full window of pending instants — each spawning a
 * completion ~100 ms out as it fires. A deep backlog is where the
 * heap pays O(log n) on every push and pop while the hierarchical
 * timing wheel buckets in O(1); the use_wheel = false arm is the
 * pure-heap reference.
 */
void
arrivalStormWorkload(benchmark::State &state, bool use_wheel)
{
    constexpr int kStormEvents = 1 << 20;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim::EventQueue eq(sim::SimTime(), use_wheel);
        for (int i = 0; i < kStormEvents; ++i) {
            // Arrival instants scattered over a 60 s window; each
            // completion lands 50-250 ms past its arrival, in the
            // wheel's near levels.
            const auto at = sim::SimTime::fromNanos(static_cast<
                std::int64_t>(sim::mix64(i) % 600'000'000'000ULL));
            const auto complete = sim::Duration::millis(
                50 + static_cast<int>(sim::mix64(i ^ 0x51ab) % 200));
            eq.scheduleAt(at, [&eq, &fired, complete] {
                eq.scheduleAfter(complete, [&fired] { ++fired; });
            });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kStormEvents);
}

void
BM_WheelSchedulePop(benchmark::State &state)
{
    arrivalStormWorkload(state, /*use_wheel=*/true);
}
BENCHMARK(BM_WheelSchedulePop);

void
BM_HeapSchedulePop(benchmark::State &state)
{
    arrivalStormWorkload(state, /*use_wheel=*/false);
}
BENCHMARK(BM_HeapSchedulePop);

faas::PlatformConfig
baseConfig(std::uint64_t seed)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.seed = seed;
    return cfg;
}

void
BM_ReadTimestamp(benchmark::State &state)
{
    faas::Platform platform(baseConfig(1));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, 1);
    faas::SandboxView sbx = platform.sandbox(ids[0]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sbx.readTimestamp());
    }
}
BENCHMARK(BM_ReadTimestamp);

void
BM_Gen1FingerprintReading(benchmark::State &state)
{
    faas::Platform platform(baseConfig(2));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, 1);
    faas::SandboxView sbx = platform.sandbox(ids[0]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::readGen1(sbx));
    }
}
BENCHMARK(BM_Gen1FingerprintReading);

void
BM_QuantizeAndKey(benchmark::State &state)
{
    core::Gen1Reading reading;
    reading.cpu_model = "Intel Xeon CPU @ 2.00GHz";
    reading.frequency_hz = 2.0e9;
    reading.tboot_s = -123456.789;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::fingerprintKey(
            core::quantizeGen1(reading, 1.0)));
    }
}
BENCHMARK(BM_QuantizeAndKey);

void
BM_CTestGroup(benchmark::State &state)
{
    faas::Platform platform(baseConfig(3));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, 800);
    // One full host cohort (~11 instances).
    const hw::HostId host = platform.oracleHostOf(ids[0]);
    std::vector<faas::InstanceId> cohort;
    for (const auto id : ids)
        if (platform.oracleHostOf(id) == host)
            cohort.push_back(id);
    channel::RngChannel chan(platform);
    const auto m =
        static_cast<std::uint32_t>((cohort.size() + 2) / 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(chan.run(cohort, m));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cohort.size()));
}
BENCHMARK(BM_CTestGroup);

void
BM_VerifyScalable(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(4));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    core::LaunchOptions launch;
    launch.instances = n;
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(platform, svc, launch);
    std::uint64_t tests = 0;
    for (auto _ : state) {
        channel::RngChannel chan(platform);
        const auto result = core::verifyScalable(
            platform, chan, obs.ids, obs.fp_keys, obs.class_keys);
        tests = result.group_tests;
        benchmark::DoNotOptimize(result);
    }
    state.counters["group_tests"] = static_cast<double>(tests);
}
BENCHMARK(BM_VerifyScalable)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

void
BM_VerifyPairwise(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(5));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    core::LaunchOptions launch;
    launch.instances = n;
    launch.disconnect_after = false;
    const auto obs = core::launchAndObserve(platform, svc, launch);
    channel::RngChannelConfig quick;
    quick.trials = 6;
    quick.detect_min = 3;
    for (auto _ : state) {
        channel::RngChannel chan(platform, quick);
        benchmark::DoNotOptimize(
            core::verifyPairwise(platform, chan, obs.ids));
    }
}
BENCHMARK(BM_VerifyPairwise)->Arg(100)->Arg(200);

void
BM_PlacementScaleOut(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        faas::Platform platform(baseConfig(6));
        const auto acct = platform.createAccount();
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        state.ResumeTiming();
        benchmark::DoNotOptimize(platform.connect(svc, n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScaleOut)->Arg(100)->Arg(800);

/**
 * Same placement workload with a live TraceSink + MetricsRegistry
 * attached. The delta against BM_PlacementScaleOut is the *enabled*
 * instrumentation cost; the disabled cost (EAAO_ENABLE_OBS=OFF) is
 * checked by comparing BM_PlacementScaleOut across build trees.
 */
void
BM_PlacementScaleOutTraced(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    obs::TrialObs slot;
    for (auto _ : state) {
        state.PauseTiming();
        slot.trace.clear();
        faas::PlatformConfig cfg = baseConfig(6);
        cfg.obs = slot.observer();
        faas::Platform platform(cfg);
        const auto acct = platform.createAccount();
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        state.ResumeTiming();
        benchmark::DoNotOptimize(platform.connect(svc, n));
    }
    benchmark::DoNotOptimize(slot.trace.size());
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScaleOutTraced)->Arg(100)->Arg(800);

/**
 * Placement hot path: indexed (min-load tree + dense loads) vs the
 * retained reference-scan decision path. Same pattern as
 * LegacyMapQueue: `OrchestratorConfig::reference_scan` keeps the
 * pre-index implementation alive in the library, and both modes make
 * byte-identical decisions, so the delta is pure lookup cost.
 */
faas::PlatformConfig
placementConfig(std::uint64_t seed, bool legacy)
{
    faas::PlatformConfig cfg = baseConfig(seed);
    cfg.orchestrator.reference_scan = legacy;
    return cfg;
}

void
pickHostWorkload(benchmark::State &state, bool legacy)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    // The base-prefix scan is demand-sized (prefix ~ live/spread),
    // so the account must already carry live load for placement cost
    // to matter; a cold account's prefix is a handful of hosts. The
    // per-service quota is 1000, so warm two services.
    constexpr std::uint32_t kWarmInstances = 1000;
    for (auto _ : state) {
        state.PauseTiming();
        faas::Platform platform(placementConfig(8, legacy));
        const auto acct = platform.createAccount();
        const auto warm =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        platform.connect(warm, kWarmInstances);
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        state.ResumeTiming();
        benchmark::DoNotOptimize(platform.connect(svc, n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void
BM_PickHost(benchmark::State &state)
{
    pickHostWorkload(state, false);
}
BENCHMARK(BM_PickHost)->Arg(100)->Arg(800);

void
BM_PickHostLegacy(benchmark::State &state)
{
    pickHostWorkload(state, true);
}
BENCHMARK(BM_PickHostLegacy)->Arg(100)->Arg(800);

/**
 * Request routing against a large pinned active pool: the routing
 * index picks the least-loaded instance in O(log n); the reference
 * path scans the whole active list per request. One multi-hour request
 * pins each pool instance so none of them idles out mid-benchmark.
 */
void
routeRequestWorkload(benchmark::State &state, bool legacy)
{
    const auto pool = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(placementConfig(9, legacy));
    faas::Orchestrator &orch = platform.orchestrator();
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    orch.setMaxConcurrency(svc, 4);
    platform.connect(svc, pool);
    for (std::uint32_t p = 0; p < pool; ++p)
        orch.routeRequest(svc, sim::Duration::hours(48));
    std::uint64_t routed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(orch.routeRequest(
            svc, sim::Duration::fromSecondsF(0.05)));
        if (++routed % 8 == 0)
            platform.advance(sim::Duration::fromSecondsF(0.05));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(routed));
}

void
BM_RouteRequest(benchmark::State &state)
{
    routeRequestWorkload(state, false);
}
BENCHMARK(BM_RouteRequest)->Arg(100)->Arg(700);

void
BM_RouteRequestLegacy(benchmark::State &state)
{
    routeRequestWorkload(state, true);
}
BENCHMARK(BM_RouteRequestLegacy)->Arg(100)->Arg(700);

/**
 * Uniform fingerprint keys put every instance in one oversized group,
 * driving verifyScalable's recursive-resolution (arena) path end to
 * end through the real covert channel.
 */
void
BM_VerifyScalableUniformFp(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    faas::Platform platform(baseConfig(10));
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
    const auto ids = platform.connect(svc, n);
    const std::vector<std::uint64_t> fp_keys(ids.size(), 7);
    for (auto _ : state) {
        channel::RngChannel chan(platform);
        benchmark::DoNotOptimize(
            core::verifyScalable(platform, chan, ids, fp_keys, {}));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VerifyScalableUniformFp)->Arg(300);

/**
 * Verification-resolution kernels driven by a host-assignment oracle
 * instead of the covert channel, isolating the bookkeeping the arena
 * rewrite removed (per-recursion vector copies, per-merge std::map)
 * from channel RNG work. The legacy kernel is the pre-arena
 * implementation kept verbatim; the arena kernel mirrors the Run in
 * src/core/verify.cpp.
 */
class KernelDsu
{
  public:
    explicit KernelDsu(std::size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    merge(std::size_t a, std::size_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent_[std::max(a, b)] = std::min(a, b);
    }

  private:
    std::vector<std::size_t> parent_;
};

/** positive[i]: members sharing member i's host in the group >= m. */
std::vector<char>
oracleOutcome(const std::vector<std::uint32_t> &host_of,
              const std::size_t *members, std::size_t count,
              std::uint32_t m)
{
    std::vector<char> positive(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t same = 0;
        for (std::size_t j = 0; j < count; ++j)
            same += host_of[members[j]] == host_of[members[i]] ? 1 : 0;
        positive[i] = same >= m ? 1 : 0;
    }
    return positive;
}

/** The pre-arena resolution kernel, verbatim modulo the test oracle. */
struct LegacyResolveKernel
{
    const std::vector<std::uint32_t> *host_of;
    std::uint32_t m = 2;
    std::uint32_t m_max = 16;
    KernelDsu dsu;
    std::uint64_t tests = 0;

    explicit LegacyResolveKernel(const std::vector<std::uint32_t> &h)
        : host_of(&h), dsu(h.size())
    {
    }

    std::vector<char>
    test(const std::vector<std::size_t> &members, std::uint32_t thresh)
    {
        ++tests;
        return oracleOutcome(*host_of, members.data(), members.size(),
                             thresh);
    }

    std::uint32_t
    oneShotThreshold(std::size_t g) const
    {
        const auto needed = static_cast<std::uint32_t>((g + 2) / 2);
        return std::clamp(needed, m, m_max);
    }

    void
    resolve(const std::vector<std::size_t> &members)
    {
        if (members.size() <= 1)
            return;
        if (members.size() > 2ULL * m_max - 1) {
            const std::size_t half = members.size() / 2;
            std::vector<std::size_t> a(members.begin(),
                                       members.begin() + half);
            std::vector<std::size_t> b(members.begin() + half,
                                       members.end());
            resolve(a);
            resolve(b);
            mergeAcross(members);
            return;
        }
        const std::uint32_t thresh = oneShotThreshold(members.size());
        const auto result = test(members, thresh);
        std::vector<std::size_t> positives, negatives;
        for (std::size_t i = 0; i < members.size(); ++i) {
            (result[i] ? positives : negatives).push_back(members[i]);
        }
        if (positives.size() >= thresh) {
            for (std::size_t i = 1; i < positives.size(); ++i)
                dsu.merge(positives[0], positives[i]);
            resolve(negatives);
            return;
        }
        if (members.size() <= 2 || thresh == m)
            return;
        const std::size_t half = members.size() / 2;
        std::vector<std::size_t> a(members.begin(),
                                   members.begin() + half);
        std::vector<std::size_t> b(members.begin() + half,
                                   members.end());
        resolve(a);
        resolve(b);
        mergeAcross(members);
    }

    void
    mergeAcross(const std::vector<std::size_t> &members)
    {
        std::map<std::size_t, std::size_t> rep_of_root;
        for (const std::size_t idx : members)
            rep_of_root.emplace(dsu.find(idx), idx);
        if (rep_of_root.size() < 2)
            return;
        std::vector<std::size_t> reps;
        reps.reserve(rep_of_root.size());
        for (const auto &[root, rep] : rep_of_root)
            reps.push_back(rep);
        const auto result = test(reps, m);
        std::vector<std::size_t> positives;
        for (std::size_t i = 0; i < reps.size(); ++i) {
            if (result[i])
                positives.push_back(reps[i]);
        }
        if (positives.size() < 2)
            return;
        if (positives.size() == 2) {
            dsu.merge(positives[0], positives[1]);
            return;
        }
        for (std::size_t i = 0; i < positives.size(); ++i) {
            for (std::size_t j = i + 1; j < positives.size(); ++j) {
                if (dsu.find(positives[i]) == dsu.find(positives[j]))
                    continue;
                const auto pr =
                    test({positives[i], positives[j]}, m);
                if (pr[0] && pr[1])
                    dsu.merge(positives[i], positives[j]);
            }
        }
    }
};

/** The arena kernel, mirroring src/core/verify.cpp's rewritten Run. */
struct ArenaResolveKernel
{
    const std::vector<std::uint32_t> *host_of;
    std::uint32_t m = 2;
    std::uint32_t m_max = 16;
    KernelDsu dsu;
    std::uint64_t tests = 0;

    explicit ArenaResolveKernel(const std::vector<std::uint32_t> &h)
        : host_of(&h), dsu(h.size())
    {
        seen_.assign(h.size(), 0);
        arena_.reserve(2 * h.size());
    }

    std::vector<char>
    test(const std::size_t *members, std::size_t count,
         std::uint32_t thresh)
    {
        ++tests;
        return oracleOutcome(*host_of, members, count, thresh);
    }

    std::uint32_t
    oneShotThreshold(std::size_t g) const
    {
        const auto needed = static_cast<std::uint32_t>((g + 2) / 2);
        return std::clamp(needed, m, m_max);
    }

    void
    resolve(const std::vector<std::size_t> &members)
    {
        const std::size_t lo = arena_.size();
        arena_.insert(arena_.end(), members.begin(), members.end());
        resolveRange(lo, arena_.size());
        arena_.resize(lo);
    }

    void
    resolveRange(std::size_t lo, std::size_t hi)
    {
        const std::size_t count = hi - lo;
        if (count <= 1)
            return;
        if (count > 2ULL * m_max - 1) {
            const std::size_t mid = lo + count / 2;
            resolveRange(lo, mid);
            resolveRange(mid, hi);
            mergeAcrossSpan(arena_.data() + lo, count);
            return;
        }
        const std::uint32_t thresh = oneShotThreshold(count);
        const auto result = test(arena_.data() + lo, count, thresh);
        std::size_t n_pos = 0;
        for (std::size_t i = 0; i < count; ++i)
            n_pos += result[i] ? 1 : 0;
        if (n_pos >= thresh) {
            std::size_t anchor = count;
            const std::size_t neg_lo = arena_.size();
            for (std::size_t i = 0; i < count; ++i) {
                const std::size_t idx = arena_[lo + i];
                if (result[i]) {
                    if (anchor == count)
                        anchor = idx;
                    else
                        dsu.merge(anchor, idx);
                } else {
                    arena_.push_back(idx);
                }
            }
            resolveRange(neg_lo, arena_.size());
            arena_.resize(neg_lo);
            return;
        }
        if (count <= 2 || thresh == m)
            return;
        const std::size_t mid = lo + count / 2;
        resolveRange(lo, mid);
        resolveRange(mid, hi);
        mergeAcrossSpan(arena_.data() + lo, count);
    }

    void
    mergeAcrossSpan(const std::size_t *members, std::size_t count)
    {
        ++epoch_;
        reps_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t idx = members[i];
            const std::size_t root = dsu.find(idx);
            if (seen_[root] != epoch_) {
                seen_[root] = epoch_;
                reps_.push_back({root, idx});
            }
        }
        if (reps_.size() < 2)
            return;
        std::sort(reps_.begin(), reps_.end());
        rep_members_.clear();
        for (const auto &[root, rep] : reps_)
            rep_members_.push_back(rep);
        const auto result =
            test(rep_members_.data(), rep_members_.size(), m);
        positives_.clear();
        for (std::size_t i = 0; i < rep_members_.size(); ++i) {
            if (result[i])
                positives_.push_back(rep_members_[i]);
        }
        if (positives_.size() < 2)
            return;
        if (positives_.size() == 2) {
            dsu.merge(positives_[0], positives_[1]);
            return;
        }
        for (std::size_t i = 0; i < positives_.size(); ++i) {
            for (std::size_t j = i + 1; j < positives_.size(); ++j) {
                if (dsu.find(positives_[i]) == dsu.find(positives_[j]))
                    continue;
                const std::size_t pair[2] = {positives_[i],
                                             positives_[j]};
                const auto pr = test(pair, 2, m);
                if (pr[0] && pr[1])
                    dsu.merge(positives_[i], positives_[j]);
            }
        }
    }

    std::vector<std::size_t> arena_;
    std::vector<std::uint64_t> seen_;
    std::uint64_t epoch_ = 0;
    std::vector<std::pair<std::size_t, std::size_t>> reps_;
    std::vector<std::size_t> rep_members_;
    std::vector<std::size_t> positives_;
};

template <typename Kernel>
void
verifyResolveWorkload(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint32_t> host_of(n);
    const auto hosts = static_cast<std::uint32_t>(n / 11 + 1);
    for (std::size_t i = 0; i < n; ++i) {
        host_of[i] =
            static_cast<std::uint32_t>(sim::mix64(i ^ 0x7e57) % hosts);
    }
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    std::uint64_t tests = 0;
    for (auto _ : state) {
        Kernel kernel(host_of);
        kernel.resolve(all);
        tests = kernel.tests;
        benchmark::DoNotOptimize(tests);
    }
    state.counters["kernel_tests"] = static_cast<double>(tests);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_VerifyResolveKernel(benchmark::State &state)
{
    verifyResolveWorkload<ArenaResolveKernel>(state);
}
BENCHMARK(BM_VerifyResolveKernel)->Arg(200)->Arg(800);

void
BM_VerifyResolveKernelLegacy(benchmark::State &state)
{
    verifyResolveWorkload<LegacyResolveKernel>(state);
}
BENCHMARK(BM_VerifyResolveKernelLegacy)->Arg(200)->Arg(800);

void
BM_FleetConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        faas::PlatformConfig cfg = baseConfig(7);
        cfg.profile.host_count =
            static_cast<std::uint32_t>(state.range(0));
        faas::Platform platform(cfg);
        benchmark::DoNotOptimize(platform.fleet().size());
    }
}
BENCHMARK(BM_FleetConstruction)->Arg(520)->Arg(1850);

// --------------------------------------------------------------- snapshot

/**
 * A primed sharded platform paused at a pre-fold window barrier — the
 * state BM_SnapshotCapture serializes and BM_SnapshotRestore loads.
 * Arg(n) is the per-lane priming burst size, so it scales the
 * instance/trace tables that dominate the image.
 */
std::vector<faas::ShardOp>
snapshotWorkloadOps(faas::ShardedPlatform &platform, std::uint32_t burst,
                    sim::SimTime &horizon)
{
    using Kind = faas::ShardOp::Kind;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
        const faas::AccountId acct = platform.createAccount(lane, 10'000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        sim::SimTime t;
        std::uint32_t step = 0;
        for (std::uint32_t round = 0; round < 3; ++round) {
            faas::ShardOp connect;
            connect.kind = Kind::Connect;
            connect.at = t;
            connect.step = step++;
            connect.service = svc;
            connect.account = acct;
            connect.a = burst;
            ops.push_back(connect);
            t = t + sim::Duration::minutes(1);
            faas::ShardOp disconnect = connect;
            disconnect.kind = Kind::Disconnect;
            disconnect.at = t;
            disconnect.step = step++;
            ops.push_back(disconnect);
            t = t + sim::Duration::minutes(4);
        }
        horizon = t + sim::Duration::minutes(5);
    }
    return ops;
}

faas::ShardedConfig
snapshotConfig()
{
    faas::ShardedConfig cfg;
    cfg.profile.host_count = 1100; // 10 lanes
    cfg.seed = 4242;
    cfg.threads = 1;
    return cfg;
}

/** Advance a fresh platform to the last priming barrier, pre-fold. */
void
primeToBarrier(faas::ShardedPlatform &platform, std::uint32_t burst)
{
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops =
        snapshotWorkloadOps(platform, burst, horizon);
    platform.beginRun(std::move(ops), horizon);
    for (int w = 0; w < 28; ++w) { // 14 min of 30 s windows
        platform.advanceWindow();
        platform.completeWindow();
    }
    platform.advanceWindow(); // pre-fold capture point
}

void
BM_SnapshotCapture(benchmark::State &state)
{
    faas::ShardedPlatform platform(snapshotConfig());
    primeToBarrier(platform, static_cast<std::uint32_t>(state.range(0)));
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::vector<std::uint8_t> image = snap::Snapshotter::capture(platform);
        bytes = image.size();
        benchmark::DoNotOptimize(image.data());
    }
    state.counters["snapshot_bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                            static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotCapture)->Arg(50)->Arg(400);

void
BM_SnapshotRestore(benchmark::State &state)
{
    faas::ShardedPlatform primed(snapshotConfig());
    primeToBarrier(primed, static_cast<std::uint32_t>(state.range(0)));
    const std::vector<std::uint8_t> image = snap::Snapshotter::capture(primed);

    // The fork-many fast path: parse once, restore per iteration into
    // one reused platform.
    snap::SnapshotReader reader;
    std::string error;
    if (!reader.parse(image, error))
        state.SkipWithError(error.c_str());
    faas::ShardedPlatform target(snapshotConfig());
    for (auto _ : state) {
        if (!snap::Snapshotter::restore(reader, target, error))
            state.SkipWithError(error.c_str());
        benchmark::DoNotOptimize(target.laneCount());
    }
    state.counters["snapshot_bytes"] = static_cast<double>(image.size());
    state.SetBytesProcessed(static_cast<std::int64_t>(image.size()) *
                            static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotRestore)->Arg(50)->Arg(400);

} // namespace

BENCHMARK_MAIN();
