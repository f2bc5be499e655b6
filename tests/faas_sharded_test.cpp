/**
 * @file
 * Tests for the sharded platform: fixed lane partition, byte-equality
 * across lane groupings (thread counts), capacity conservation through
 * the window barriers, and the planted cross-lane faults being caught
 * by the shard-equality oracle and shrinkable to tiny replays.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "faas/sharded.hpp"
#include "testkit/invariants.hpp"
#include "testkit/runner.hpp"
#include "testkit/scenario.hpp"
#include "testkit/shrink.hpp"

namespace eaao::faas {
namespace {

/** Two accounts on different lanes, hot bursts, barrier straddling. */
testkit::Scenario
crossLaneScenario(std::uint32_t fault = 0)
{
    testkit::Scenario sc;
    sc.seed = 20240;
    sc.profile = 0;
    sc.host_count = 550; // 5 shards -> 5 lanes
    sc.hot_burst_min = 8;
    sc.fault = fault;
    sc.accounts.push_back({0, 1000});
    sc.accounts.push_back({3, 1000});
    sc.services.push_back({0, 0, 1});
    sc.services.push_back({1, 0, 1});
    using K = testkit::ScenarioStep::Kind;
    sc.steps.push_back({K::Connect, 0, 40, 0});
    sc.steps.push_back({K::Burst, 0, 12, 200});
    sc.steps.push_back({K::Advance, 0, 30'000, 0}); // exactly one window
    sc.steps.push_back({K::Burst, 1, 12, 200});
    sc.steps.push_back({K::Connect, 1, 30, 0});
    sc.steps.push_back({K::Advance, 0, 910'000, 0}); // past idle_max
    sc.steps.push_back({K::SpendProbe, 0, 0, 0});
    return sc;
}

ShardedConfig
smallConfig(unsigned threads)
{
    ShardedConfig cfg;
    cfg.profile.host_count = 550;
    cfg.seed = 77;
    cfg.threads = threads;
    return cfg;
}

TEST(ShardedPlatform, LanePartitionIsFixed)
{
    // The lane count and the account->lane map are platform
    // properties: they must not depend on the threads knob.
    std::vector<std::uint32_t> lanes_seen;
    for (const unsigned threads : {1u, 2u, 5u, 16u}) {
        ShardedPlatform p(smallConfig(threads));
        EXPECT_EQ(p.laneCount(), 5u); // min(16, ceil(550/110))
        const AccountId pinned = p.createAccount(3u, 1000);
        const AccountId hashed = p.createAccount({}, 1000);
        if (lanes_seen.empty()) {
            lanes_seen = {p.laneOfAccount(pinned), p.laneOfAccount(hashed)};
            EXPECT_EQ(lanes_seen[0], 3u); // home shard 3 -> lane 3 % 5
        } else {
            EXPECT_EQ(p.laneOfAccount(pinned), lanes_seen[0]);
            EXPECT_EQ(p.laneOfAccount(hashed), lanes_seen[1]);
        }
    }
}

TEST(ShardedPlatform, LogByteIdenticalAcrossGroupings)
{
    const testkit::Scenario sc = crossLaneScenario();
    testkit::ShardedRunOptions base;
    const std::string want = runScenarioSharded(sc, base);
    ASSERT_FALSE(want.empty());
    // The scenario must actually exercise the exchange: at least one
    // fold digest line.
    EXPECT_NE(want.find("window="), std::string::npos);

    for (const unsigned threads : {2u, 3u, 4u, 5u, 16u}) {
        testkit::ShardedRunOptions ro;
        ro.threads = threads;
        EXPECT_EQ(runScenarioSharded(sc, ro), want) << "threads=" << threads;
    }
}

TEST(ShardedPlatform, CommittedCapacityConservedAtBarriers)
{
    // After run() every barrier has folded every lane delta, so the
    // committed table must equal the live instances exactly.
    ShardedConfig cfg = smallConfig(2);
    ShardedPlatform p(cfg);
    const AccountId a0 = p.createAccount(0u, 1000);
    const AccountId a1 = p.createAccount(4u, 1000);
    const ServiceId s0 = p.deployService(a0, ExecEnv::Gen1);
    const ServiceId s1 = p.deployService(a1, ExecEnv::Gen1);

    std::vector<ShardOp> ops;
    ShardOp op;
    op.kind = ShardOp::Kind::Connect;
    op.service = s0;
    op.a = 25;
    ops.push_back(op);
    op.service = s1;
    op.a = 40;
    ops.push_back(op);
    p.run(std::move(ops), sim::SimTime() + sim::Duration::minutes(2));

    // One account per lane, so each is that lane's local account 0.
    const std::uint32_t live =
        p.laneOrchestrator(p.laneOfAccount(a0)).account(0).live_count +
        p.laneOrchestrator(p.laneOfAccount(a1)).account(0).live_count;
    EXPECT_GE(live, 65u); // every connection got an instance

    double committed_vcpus = 0.0;
    double committed_mem = 0.0;
    for (std::uint32_t h = 0; h < p.fleet().size(); ++h) {
        committed_vcpus += p.committedLoad().vcpus(h);
        committed_mem += p.committedLoad().memGb(h);
    }
    EXPECT_DOUBLE_EQ(committed_vcpus,
                     static_cast<double>(live) * sizes::kSmall.vcpus);
    EXPECT_DOUBLE_EQ(committed_mem,
                     static_cast<double>(live) * sizes::kSmall.memory_gb);
}

TEST(ShardedPlatform, WindowFaultCaughtByShardOracle)
{
    testkit::InvariantOptions opts;
    opts.threads = 2;
    opts.check_reference = false; // isolate the shard oracle
    opts.check_obs = false;
    opts.check_threads = false;
    opts.check_events = false;

    for (const std::uint32_t fault : {3u, 4u}) {
        const std::vector<testkit::Violation> violations =
            testkit::checkInvariants(crossLaneScenario(fault), opts);
        ASSERT_FALSE(violations.empty()) << "fault " << fault;
        EXPECT_EQ(violations[0].oracle, "shards") << "fault " << fault;
    }

    // And the clean scenario holds.
    EXPECT_TRUE(testkit::checkInvariants(crossLaneScenario(), opts).empty());
}

TEST(ShardedPlatform, WindowFaultsShrinkToTinyReplays)
{
    testkit::InvariantOptions opts;
    opts.threads = 2;
    opts.check_reference = false;
    opts.check_obs = false;
    opts.check_threads = false;
    opts.check_events = false;

    for (const std::uint32_t fault : {3u, 4u}) {
        const testkit::Scenario failing = crossLaneScenario(fault);
        const testkit::FailurePredicate still_fails =
            [&opts](const testkit::Scenario &candidate) {
                return !testkit::checkInvariants(candidate, opts).empty();
            };
        const testkit::ShrinkResult shrunk =
            testkit::shrink(failing, still_fails);
        EXPECT_LE(shrunk.scenario.steps.size(), 3u) << "fault " << fault;
        // The shrunk reproducer still fails, and round-trips.
        EXPECT_FALSE(
            testkit::checkInvariants(shrunk.scenario, opts).empty());
        const std::string text = shrunk.scenario.serialize();
        EXPECT_EQ(testkit::Scenario::fromSpec(
                      campaign::CampaignSpec::parse(text))
                      .serialize(),
                  text);
    }
}

TEST(ShardedPlatform, GeneratedScenariosHoldShardEquality)
{
    // The generator's shard-aware scenarios (pins 0..4, cross-shard
    // burst pairs, window-multiple advances) pass the oracle.
    testkit::InvariantOptions opts;
    opts.threads = 2;
    opts.check_reference = false;
    opts.check_obs = false;
    opts.check_threads = false;
    opts.check_events = false;
    for (std::uint64_t i = 0; i < 3; ++i) {
        const testkit::Scenario sc = testkit::generateScenario(0xABCD, i);
        const std::vector<testkit::Violation> violations =
            testkit::checkInvariants(sc, opts);
        for (const testkit::Violation &v : violations)
            ADD_FAILURE() << "scenario " << i << " [" << v.oracle << "] "
                          << v.detail;
    }
}

} // namespace
} // namespace eaao::faas
