/**
 * @file
 * Indexed-vs-reference oracle: the incremental placement/routing/spend
 * indexes must reproduce the retained linear-scan decision paths
 * exactly, not just statistically.
 *
 * `OrchestratorConfig::reference_scan` keeps the pre-index
 * implementations alive (full base-prefix scans, active-list routing
 * scans, whole-table spend scans). A randomized multi-service workload
 * is scripted once and replayed against both modes from the same seed;
 * every observable decision — placed hosts, placement reasons, routing
 * targets, restart replacements, account spend at arbitrary poll
 * points — must be identical. Spend is compared with EXPECT_EQ on
 * doubles, i.e. bit-exact, which is stronger than the "agree to the
 * cent" contract the experiments rely on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "faas/platform.hpp"
#include "faas/routing_index.hpp"
#include "faas/sharded.hpp"
#include "faas/trace.hpp"
#include "sim/rng.hpp"
#include "snap/snapshotter.hpp"

namespace eaao {
namespace {

/** One scripted operation; sampled once, replayed on both platforms. */
struct Op
{
    enum Kind : std::uint8_t {
        Route,
        Connect,
        Advance,
        SpendProbe,
        DisconnectAll,
        Restart,
        SetConcurrency,
    };
    Kind kind = Route;
    std::uint32_t a = 0; //!< service index / instance pick / limit
    std::uint32_t b = 0; //!< connect size / duration knob
};

std::vector<Op>
makeScript(std::uint64_t seed, std::size_t steps)
{
    sim::Rng rng(seed);
    std::vector<Op> script;
    script.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        Op op;
        const std::uint64_t roll = rng.uniformInt(std::uint64_t{10});
        switch (roll) {
        case 0:
        case 1:
        case 2:
        case 3: op.kind = Op::Route; break;
        case 4: op.kind = Op::Connect; break;
        case 5: op.kind = Op::Advance; break;
        case 6: op.kind = Op::SpendProbe; break;
        case 7: op.kind = Op::DisconnectAll; break;
        case 8: op.kind = Op::Restart; break;
        default: op.kind = Op::SetConcurrency; break;
        }
        op.a = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{1} << 30));
        op.b = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{1} << 30));
        script.push_back(op);
    }
    return script;
}

/** Everything observable from one replay of the script. */
struct WorkloadLog
{
    std::vector<faas::PlacementEvent> trace;
    std::vector<faas::InstanceId> routed;
    std::vector<faas::InstanceId> restarted;
    std::vector<double> spend;
    std::size_t instance_count = 0;
    double final_spend_a = 0.0;
    double final_spend_b = 0.0;
};

WorkloadLog
runWorkload(const std::vector<Op> &script, std::uint64_t seed,
            bool reference)
{
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usEast1();
    cfg.seed = seed;
    cfg.orchestrator.reference_scan = reference;
    faas::Platform platform(cfg);
    faas::Orchestrator &orch = platform.orchestrator();

    faas::PlacementTrace trace;
    orch.attachTrace(&trace);

    const auto acct_a = platform.createAccount();
    const auto acct_b = platform.createAccount(2);
    std::vector<faas::ServiceId> svcs;
    for (int s = 0; s < 3; ++s)
        svcs.push_back(platform.deployService(acct_a, faas::ExecEnv::Gen1));
    svcs.push_back(platform.deployService(acct_b, faas::ExecEnv::Gen1));

    WorkloadLog log;
    std::vector<faas::InstanceId> created;
    for (const Op &op : script) {
        const auto svc = svcs[op.a % svcs.size()];
        switch (op.kind) {
        case Op::Route: {
            const double service_s =
                0.02 + 0.01 * static_cast<double>(op.b % 6);
            log.routed.push_back(orch.routeRequest(
                svc, sim::Duration::fromSecondsF(service_s)));
            break;
        }
        case Op::Connect: {
            const auto ids = platform.connect(svc, 10 + op.b % 50);
            created.insert(created.end(), ids.begin(), ids.end());
            break;
        }
        case Op::Advance:
            platform.advance(
                sim::Duration::fromSecondsF(0.05 + 0.25 * (op.b % 8)));
            break;
        case Op::SpendProbe:
            log.spend.push_back(platform.accountSpendUsd(acct_a));
            log.spend.push_back(platform.accountSpendUsd(acct_b));
            break;
        case Op::DisconnectAll:
            platform.disconnectAll(svc);
            break;
        case Op::Restart: {
            if (created.empty())
                break;
            const auto id = created[op.b % created.size()];
            if (platform.instanceInfo(id).state ==
                faas::InstanceState::Terminated)
                break;
            log.restarted.push_back(platform.restartInstance(id));
            break;
        }
        case Op::SetConcurrency:
            orch.setMaxConcurrency(svc, 1 + op.b % 4);
            break;
        }
    }

    // Let in-flight work and idle reaps settle, then take the final
    // spends (the settle-on-transition paths all fire here).
    platform.advance(sim::Duration::minutes(30));
    log.final_spend_a = platform.accountSpendUsd(acct_a);
    log.final_spend_b = platform.accountSpendUsd(acct_b);
    log.instance_count = orch.instanceCount();

    orch.attachTrace(nullptr);
    log.trace = trace.events();
    return log;
}

void
expectIdentical(const WorkloadLog &idx, const WorkloadLog &ref)
{
    ASSERT_EQ(idx.trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < idx.trace.size(); ++i) {
        const faas::PlacementEvent &a = idx.trace[i];
        const faas::PlacementEvent &b = ref.trace[i];
        ASSERT_EQ(a.when, b.when) << "event " << i;
        ASSERT_EQ(a.instance, b.instance) << "event " << i;
        ASSERT_EQ(a.service, b.service) << "event " << i;
        ASSERT_EQ(a.account, b.account) << "event " << i;
        ASSERT_EQ(a.host, b.host) << "event " << i;
        ASSERT_EQ(a.reason, b.reason) << "event " << i;
    }
    ASSERT_EQ(idx.routed, ref.routed);
    ASSERT_EQ(idx.restarted, ref.restarted);
    ASSERT_EQ(idx.spend.size(), ref.spend.size());
    for (std::size_t i = 0; i < idx.spend.size(); ++i)
        EXPECT_EQ(idx.spend[i], ref.spend[i]) << "spend probe " << i;
    EXPECT_EQ(idx.final_spend_a, ref.final_spend_a);
    EXPECT_EQ(idx.final_spend_b, ref.final_spend_b);
    EXPECT_EQ(idx.instance_count, ref.instance_count);
}

TEST(IndexedOracle, RandomWorkloadMatchesReferenceScan)
{
    for (const std::uint64_t seed : {7ULL, 20260806ULL, 999331ULL}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const auto script = makeScript(seed ^ 0x5eed, 400);
        const WorkloadLog idx = runWorkload(script, seed, false);
        const WorkloadLog ref = runWorkload(script, seed, true);
        ASSERT_FALSE(idx.trace.empty());
        ASSERT_FALSE(idx.routed.empty());
        ASSERT_FALSE(idx.spend.empty());
        expectIdentical(idx, ref);
    }
}

TEST(IndexedOracle, RoutingChurnAcrossCompactionsMatchesReferenceScan)
{
    // Every sixth op scales a service out by 10-59 instances and every
    // sixth (offset 3) disconnects one: each disconnect leaves its
    // routing positions dead, so the flat index keeps filling up and
    // compacting. Routing must still pick what the active-list scan
    // picks.
    std::vector<Op> script = makeScript(0xc0ffee, 1200);
    for (std::size_t i = 0; i < script.size(); ++i) {
        if (i % 6 == 0)
            script[i].kind = Op::Connect;
        else if (i % 6 == 3)
            script[i].kind = Op::DisconnectAll;
    }
    const WorkloadLog idx = runWorkload(script, 31337, false);
    const WorkloadLog ref = runWorkload(script, 31337, true);
    ASSERT_GT(idx.routed.size(), 200u);
    expectIdentical(idx, ref);
}

TEST(IndexedOracle, RoutingIndexMatchesFirstMinScanAcrossCompactions)
{
    // The index alone against the legacy rule it replaces — the first
    // instance in activation order with the least in_flight under the
    // concurrency cap — over random add/reload/remove churn on three
    // services, with a mid-run restore that re-inserts entries in an
    // order unrelated to activation.
    struct Member
    {
        std::uint64_t seq;
        faas::InstanceId id;
        std::uint32_t load;
    };
    std::vector<std::vector<Member>> model(3);
    faas::RoutingIndex index;
    sim::Rng rng(0x0dd1ce);
    faas::InstanceId next_id = 0;

    const auto scan = [&model](faas::ServiceId svc, std::uint32_t cap) {
        const Member *best = nullptr;
        for (const Member &m : model[svc]) {
            if (m.load < cap && (best == nullptr || m.load < best->load))
                best = &m;
        }
        return best == nullptr ? faas::kNoInstance : best->id;
    };

    for (int op = 0; op < 20000; ++op) {
        const auto svc =
            static_cast<faas::ServiceId>(rng.uniformInt(std::uint64_t{3}));
        auto &members = model[svc];
        const std::uint64_t roll = rng.uniformInt(std::uint64_t{10});
        if (roll < 3 || members.empty()) {
            const auto load =
                static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{3}));
            const faas::InstanceId id = next_id++;
            members.push_back(Member{index.add(svc, id, load), id, load});
        } else {
            const auto pick = static_cast<std::size_t>(
                rng.uniformInt(static_cast<std::uint64_t>(members.size())));
            if (roll < 7) {
                members[pick].load =
                    static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{5}));
                index.reindex(svc, members[pick].seq, members[pick].load);
            } else {
                index.remove(svc, members[pick].seq);
                members.erase(members.begin()
                              + static_cast<std::ptrdiff_t>(pick));
            }
        }
        if (op == 10000) {
            // Restore: same next seq, entries in descending-id order.
            const std::uint64_t next = index.nextSeq();
            index.resetForRestore(next);
            for (faas::ServiceId s = 0; s < 3; ++s) {
                for (auto it = model[s].rbegin(); it != model[s].rend(); ++it)
                    index.insertRestored(s, it->id, it->load, it->seq);
            }
            index.finishRestore();
        }
        for (faas::ServiceId s = 0; s < 3; ++s) {
            for (const std::uint32_t cap : {1u, 3u, 100u}) {
                ASSERT_EQ(index.leastLoaded(s, cap), scan(s, cap))
                    << "op " << op << " service " << s << " cap " << cap;
            }
        }
    }
    EXPECT_GE(index.compactions(), 5u);
}

TEST(IndexedOracle, DynamicPlacementProfileMatchesReferenceScan)
{
    // us-central1 re-jitters the base order every launch, forcing a
    // placement-index rebuild per scale-out; the rebuilt tree must
    // keep agreeing with the scan.
    faas::PlatformConfig cfg;
    cfg.profile = faas::DataCenterProfile::usCentral1();
    cfg.seed = 42;

    const auto script = makeScript(0xcafe, 250);
    std::vector<Op> launches_heavy = script;
    for (std::size_t i = 0; i < launches_heavy.size(); i += 5)
        launches_heavy[i].kind = Op::Connect;

    WorkloadLog logs[2];
    for (const bool reference : {false, true}) {
        cfg.orchestrator.reference_scan = reference;
        faas::Platform platform(cfg);
        faas::Orchestrator &orch = platform.orchestrator();
        faas::PlacementTrace trace;
        orch.attachTrace(&trace);
        const auto acct = platform.createAccount();
        const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
        WorkloadLog &log = logs[reference ? 1 : 0];
        for (const Op &op : launches_heavy) {
            switch (op.kind) {
            case Op::Connect:
                platform.connect(svc, 10 + op.b % 80);
                break;
            case Op::Advance:
                platform.advance(
                    sim::Duration::fromSecondsF(0.5 + 0.5 * (op.b % 4)));
                break;
            case Op::DisconnectAll:
                platform.disconnectAll(svc);
                break;
            default:
                log.spend.push_back(platform.accountSpendUsd(acct));
                break;
            }
        }
        platform.advance(sim::Duration::minutes(30));
        log.final_spend_a = platform.accountSpendUsd(acct);
        log.instance_count = orch.instanceCount();
        orch.attachTrace(nullptr);
        log.trace = trace.events();
    }
    ASSERT_FALSE(logs[0].trace.empty());
    expectIdentical(logs[0], logs[1]);
}

/** What one hot-placement run placed, and how hard it pushed. */
struct HotRun
{
    std::vector<faas::PlacementEvent> trace;
    std::size_t helper_placements = 0;
    std::size_t max_full_hosts = 0; //!< hosts with no room, worst launch
};

/**
 * Several services of one account launched together, again and again
 * within the demand window, so every launch after the first is hot and
 * lands on the helper layer. After each launch, count the hosts that
 * cannot take one more instance of @p size.
 */
HotRun
runHotPlacement(const faas::DataCenterProfile &profile, bool isolate,
                bool reference, faas::ContainerSize size, int services,
                int rounds)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = 0x407;
    cfg.orchestrator.isolate_accounts = isolate;
    cfg.orchestrator.reference_scan = reference;
    faas::Platform platform(cfg);
    faas::Orchestrator &orch = platform.orchestrator();
    faas::PlacementTrace trace;
    orch.attachTrace(&trace);

    const auto acct = platform.createAccount(0);
    const auto other = platform.createAccount(1);
    std::vector<faas::ServiceId> svcs;
    for (int s = 0; s < services; ++s)
        svcs.push_back(platform.deployService(acct, faas::ExecEnv::Gen1, size));
    const auto bystander =
        platform.deployService(other, faas::ExecEnv::Gen1, size);

    HotRun run;
    const faas::Fleet &fleet = platform.fleet();
    std::vector<double> used(fleet.size());
    for (int r = 0; r < rounds; ++r) {
        for (const auto svc : svcs)
            platform.connect(svc, 800);
        platform.connect(bystander, 100 + 50 * static_cast<std::uint32_t>(r));
        std::fill(used.begin(), used.end(), 0.0);
        for (faas::InstanceId id = 0; id < orch.instanceCount(); ++id) {
            const faas::InstanceRecord &inst = orch.instance(id);
            if (inst.state != faas::InstanceState::Terminated)
                used[inst.host] += inst.size.vcpus;
        }
        std::size_t full = 0;
        for (hw::HostId h = 0; h < fleet.size(); ++h) {
            const double usable =
                fleet.host(h).vcpus() * cfg.orchestrator.host_usable_fraction;
            full += used[h] + size.vcpus > usable;
        }
        run.max_full_hosts = std::max(run.max_full_hosts, full);
        platform.advance(sim::Duration::minutes(1));
        for (const auto svc : svcs)
            platform.disconnectAll(svc);
        platform.disconnectAll(bystander);
        platform.advance(sim::Duration::minutes(2 + r % 3));
    }
    orch.attachTrace(nullptr);
    run.trace = trace.events();
    for (const faas::PlacementEvent &ev : run.trace)
        run.helper_placements += ev.reason == faas::PlacementReason::HotHelper;
    return run;
}

/** A hot two-service storm per lane of a 2-lane sharded platform. */
std::vector<faas::ShardOp>
hotShardOps(faas::ShardedPlatform &platform)
{
    using Kind = faas::ShardOp::Kind;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < platform.laneCount(); ++lane) {
        const faas::AccountId acct = platform.createAccount(lane, 1000);
        std::vector<faas::ServiceId> svcs;
        for (int s = 0; s < 2; ++s) {
            svcs.push_back(platform.deployService(
                acct, faas::ExecEnv::Gen1, faas::sizes::kLarge));
        }
        std::uint32_t step = 0;
        for (int round = 0; round < 4; ++round) {
            const sim::SimTime t =
                sim::SimTime() + sim::Duration::minutes(3 * round);
            for (const faas::ServiceId svc : svcs) {
                faas::ShardOp op;
                op.kind = Kind::Connect;
                op.at = t;
                op.step = step++;
                op.service = svc;
                op.account = acct;
                // Each launch outgrows the idle pool the last one left,
                // so the shortfall is created hot, on helper hosts.
                op.a = 250 + 200 * static_cast<std::uint32_t>(round);
                ops.push_back(op);
            }
            for (const faas::ServiceId svc : svcs) {
                faas::ShardOp op;
                op.kind = Kind::Disconnect;
                op.at = t + sim::Duration::minutes(1);
                op.step = step++;
                op.service = svc;
                op.account = acct;
                ops.push_back(op);
            }
        }
    }
    return ops;
}

/**
 * Canonical log of the hot sharded storm; with @p restore_at_window,
 * captured pre-fold at that barrier and finished on a platform that
 * has already run the whole storm (so every view it holds is stale).
 */
std::string
runHotSharded(bool reference, int restore_at_window)
{
    faas::ShardedConfig cfg;
    cfg.profile.host_count = 220; // two shards, two lanes
    cfg.seed = 5150;
    cfg.threads = 2;
    cfg.orchestrator.reference_scan = reference;
    faas::ShardedPlatform platform(cfg);
    platform.beginRun(hotShardOps(platform),
                      sim::SimTime() + sim::Duration::minutes(14));
    if (restore_at_window < 0) {
        platform.resumeRun();
        return platform.renderLog();
    }
    for (int w = 0; w < restore_at_window; ++w) {
        platform.advanceWindow();
        platform.completeWindow();
    }
    platform.advanceWindow();
    const std::vector<std::uint8_t> image =
        snap::Snapshotter::capture(platform);
    faas::ShardedPlatform restored(cfg);
    restored.run(hotShardOps(restored),
                 sim::SimTime() + sim::Duration::minutes(14));
    std::string error;
    EXPECT_TRUE(snap::Snapshotter::restore(image, restored, error)) << error;
    restored.resumeRun();
    return restored.renderLog();
}

TEST(IndexedOracle, HelperPickMatchesReferenceScan)
{
    // The helper pick answers from two per-service min-views (helper
    // order and base order, keyed by the service's per-host load);
    // every hot placement must land where the dense scan of both
    // prefixes lands, including its base-first tie-break.
    faas::DataCenterProfile small = faas::DataCenterProfile::usEast1();
    small.host_count = 220; // two shards: Large launches fill hosts
    struct Case
    {
        const char *name;
        faas::DataCenterProfile profile;
        bool isolate;
        int services;
    };
    const Case cases[] = {
        {"us-east1 Large at capacity", small, false, 3},
        {"isolate_accounts", small, true, 2},
        {"us-central1 per-launch re-jitter",
         faas::DataCenterProfile::usCentral1(), false, 3},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const HotRun idx = runHotPlacement(c.profile, c.isolate, false,
                                           faas::sizes::kLarge, c.services, 5);
        const HotRun ref = runHotPlacement(c.profile, c.isolate, true,
                                           faas::sizes::kLarge, c.services, 5);
        EXPECT_GT(idx.helper_placements, 1000u);
        ASSERT_EQ(idx.trace.size(), ref.trace.size());
        for (std::size_t i = 0; i < idx.trace.size(); ++i) {
            ASSERT_EQ(idx.trace[i].host, ref.trace[i].host) << "event " << i;
            ASSERT_EQ(idx.trace[i].reason, ref.trace[i].reason)
                << "event " << i;
        }
        if (c.profile.host_count == small.host_count) {
            EXPECT_GT(idx.max_full_hosts, 10u);
        }
    }

    // Mid-run snapshot restore: the views are derived state, rebuilt
    // after restore; the resumed run must still place like the scan.
    const std::string ref = runHotSharded(true, -1);
    EXPECT_EQ(runHotSharded(false, -1), ref);
    EXPECT_EQ(runHotSharded(false, 8), ref);
    EXPECT_NE(ref.find("why=hot-helper"), std::string::npos);
}

TEST(IndexedOracle, ZeroHelperChunkOverflowLeavesAFullHomeShard)
{
    // helper_chunk 0 turns the hot-path load balancer off, so the
    // helper prefix starts empty. Once the home shard is full, cold
    // overflow must still grow that prefix and find helper hosts
    // (it used to double an empty prefix forever), in both modes.
    faas::DataCenterProfile profile = faas::DataCenterProfile::usEast1();
    profile.helper_chunk = 0;
    std::vector<faas::PlacementEvent> traces[2];
    for (const bool reference : {false, true}) {
        faas::PlatformConfig cfg;
        cfg.profile = profile;
        cfg.seed = 3;
        cfg.orchestrator.reference_scan = reference;
        faas::Platform platform(cfg);
        faas::PlacementTrace trace;
        platform.orchestrator().attachTrace(&trace);
        const auto acct = platform.createAccount(0);
        for (int s = 0; s < 3; ++s) {
            platform.connect(platform.deployService(acct, faas::ExecEnv::Gen1,
                                                    faas::sizes::kLarge),
                             1000);
        }
        platform.orchestrator().attachTrace(nullptr);
        traces[reference ? 1 : 0] = trace.events();
    }
    ASSERT_EQ(traces[0].size(), 3000u);
    std::size_t overflow = 0;
    for (std::size_t i = 0; i < traces[0].size(); ++i) {
        ASSERT_EQ(traces[0][i].host, traces[1][i].host) << "event " << i;
        ASSERT_EQ(traces[0][i].reason, traces[1][i].reason) << "event " << i;
        overflow +=
            traces[0][i].reason == faas::PlacementReason::ColdOverflow;
    }
    EXPECT_GT(overflow, 100u);
}

/**
 * Spend must settle active time exactly once per Active-exit
 * transition: request completion draining in_flight to zero,
 * disconnect, idle reap, and restart all route through the same
 * settle point. Polls straddling each transition must agree with the
 * reference full-table scan to the cent (bit-exact, in fact).
 */
TEST(IndexedOracle, SpendSettlesOnEveryTransition)
{
    std::vector<double> spends[2];
    std::size_t counts[2] = {0, 0};
    for (const bool reference : {false, true}) {
        faas::PlatformConfig cfg;
        cfg.profile = faas::DataCenterProfile::usEast1();
        cfg.seed = 1234;
        cfg.orchestrator.reference_scan = reference;
        faas::Platform platform(cfg);
        faas::Orchestrator &orch = platform.orchestrator();
        const auto acct = platform.createAccount();
        const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);
        auto &out = spends[reference ? 1 : 0];
        const auto poll = [&] { out.push_back(platform.accountSpendUsd(acct)); };

        const auto ids = platform.connect(svc, 40);
        poll();

        // Mid-flight: requests still running when polled.
        orch.setMaxConcurrency(svc, 2);
        for (int r = 0; r < 10; ++r)
            orch.routeRequest(svc, sim::Duration::fromSecondsF(1.0));
        poll();
        platform.advance(sim::Duration::fromSecondsF(0.5));
        poll(); // in flight
        platform.advance(sim::Duration::fromSecondsF(0.6));
        poll(); // just completed; instances drained to idle

        // Restart of an idle instance (terminate + replace).
        platform.restartInstance(ids.front());
        poll();

        // Disconnect everything, then let the idle reap expire them.
        platform.disconnectAll(svc);
        poll();
        platform.advance(sim::Duration::minutes(20));
        poll(); // after reap: spend must be frozen
        platform.advance(sim::Duration::minutes(20));
        poll(); // and stay frozen
        counts[reference ? 1 : 0] = orch.instanceCount();
    }
    ASSERT_EQ(spends[0].size(), spends[1].size());
    for (std::size_t i = 0; i < spends[0].size(); ++i)
        EXPECT_EQ(spends[0][i], spends[1][i]) << "poll " << i;
    EXPECT_EQ(counts[0], counts[1]);
    // The frozen-after-reap polls really are equal and non-zero.
    const std::size_t n = spends[0].size();
    EXPECT_GT(spends[0][n - 2], 0.0);
    EXPECT_EQ(spends[0][n - 2], spends[0][n - 1]);
}

} // namespace
} // namespace eaao
