/**
 * @file
 * Tests of the scenario-fuzzing testkit itself: generator determinism,
 * replay-file round-trips, the invariant oracles on sampled scenarios,
 * and the shrinker's ability to minimize a planted orchestrator bug.
 */

#include <gtest/gtest.h>

#include <string>

#include "campaign/spec.hpp"
#include "testkit/invariants.hpp"
#include "testkit/runner.hpp"
#include "testkit/scenario.hpp"
#include "testkit/shrink.hpp"

namespace eaao::testkit {
namespace {

/** Read @p text as a replay file, as `fuzz_scenarios --replay` does. */
Scenario
readReplay(const std::string &text)
{
    return Scenario::fromSpec(
        campaign::CampaignSpec::parse(text, "t.scenario"));
}

/** The one-line diagnostic reading @p text gives ("" if it reads). */
std::string
readError(const std::string &text)
{
    try {
        readReplay(text);
    } catch (const campaign::SpecError &e) {
        return e.what();
    }
    return "";
}

/** Header and [campaign] of a replay file: lines 1..4. */
const std::string kHead = "eaao-scenario v2\n"
                          "[campaign]\n"
                          "name = t\n"
                          "program = replay\n";

TEST(ScenarioGen, DeterministicPerIndex)
{
    for (std::uint64_t i = 0; i < 16; ++i) {
        const Scenario a = generateScenario(42, i);
        const Scenario b = generateScenario(42, i);
        EXPECT_EQ(a.serialize(), b.serialize()) << "index " << i;
    }
}

TEST(ScenarioGen, IndependentOfOtherIndices)
{
    // Scenario i must not depend on which indices were drawn before.
    const Scenario direct = generateScenario(42, 7);
    generateScenario(42, 3);
    generateScenario(42, 11);
    const Scenario again = generateScenario(42, 7);
    EXPECT_EQ(direct.serialize(), again.serialize());
}

TEST(ScenarioGen, DistinctAcrossIndices)
{
    EXPECT_NE(generateScenario(42, 0).serialize(),
              generateScenario(42, 1).serialize());
    EXPECT_NE(generateScenario(42, 0).serialize(),
              generateScenario(43, 0).serialize());
}

TEST(ScenarioGen, WellFormed)
{
    for (std::uint64_t i = 0; i < 64; ++i) {
        const Scenario sc = generateScenario(7, i);
        ASSERT_FALSE(sc.accounts.empty());
        ASSERT_FALSE(sc.services.empty());
        ASSERT_FALSE(sc.steps.empty());
        for (const ScenarioService &s : sc.services)
            EXPECT_LT(s.account, sc.accounts.size());
    }
}

TEST(ScenarioSerialize, RoundTrip)
{
    for (std::uint64_t i = 0; i < 32; ++i) {
        const Scenario sc = generateScenario(99, i);
        const std::string text = sc.serialize();
        EXPECT_EQ(readReplay(text).serialize(), text);
    }
}

TEST(ScenarioSerialize, RejectsMalformedInput)
{
    const std::string tenants = "[tenants]\n"
                                "account -1 1000\n"
                                "service 0 0 1\n";
    const auto rejects = [](const std::string &text,
                            const std::string &want) {
        const std::string error = readError(text);
        EXPECT_NE(error.find(want), std::string::npos)
            << "want '" << want << "', got '" << error << "'";
    };
    rejects("", "t.scenario:1: empty file");
    rejects("not-a-scenario\n", "t.scenario:1: expected header");
    // The retired flat v1 format is not a header either.
    rejects("eaao-scenario v1\nseed 1\n",
            "t.scenario:1: expected header 'eaao-scenario v2'");
    rejects(kHead + "[platform]\nbogus = 1\n" + tenants,
            "t.scenario:6: unknown [platform] key 'bogus'");
    rejects(kHead + "[platform]\nhosts = 1000001\n" + tenants,
            "t.scenario:6: 'hosts' = 1000001 exceeds the 1000000-host cap");
    rejects(kHead + "[platform]\nisolate = 2\n" + tenants,
            "t.scenario:6: 'isolate' expects 0 or 1");
    rejects(kHead + "[tenants]\naccount -1 1000\n",
            "t.scenario:5: [tenants] declares no service");
    rejects(kHead + "[tenants]\naccount -1 4.5\nservice 0 0 1\n",
            "t.scenario:6: account quota expects an integer");
    // A service referencing a missing account is structurally invalid.
    rejects(kHead + "[tenants]\naccount -1 1000\nservice 5 0 1\n",
            "t.scenario:7: service references account 5 of 1");
    rejects(kHead + "[tenants]\naccount -1 1000\nservice 0 2 1\n",
            "t.scenario:7: service env expects an integer in 0..1");
    rejects(kHead + "[tenants]\naccount -1 1000\nservice 0 0 4\n",
            "t.scenario:7: service size expects an integer in 0..3");
    rejects(kHead + tenants + "[script]\nhop 0 5 0\n",
            "t.scenario:9: unknown step kind 'hop'");
    rejects(kHead + tenants + "[script]\nroute 0 5\n",
            "t.scenario:9: expected '<kind> <target> <a> <b>'");

    // Comments and blank lines are fine.
    const Scenario sc =
        readReplay("# comment\n" + kHead + "\n" + tenants +
                   "# another\n[script]\nroute 0 5 0\n");
    ASSERT_EQ(sc.steps.size(), 1u);
    EXPECT_EQ(sc.steps[0].kind, ScenarioStep::Kind::Route);
}

TEST(ScenarioSerialize, RejectsNewerVersions)
{
    // A replay from a future format must fail loudly, not misparse.
    EXPECT_NE(readError("eaao-scenario v3\n"
                        "[campaign]\n"
                        "name = x\n")
                  .find("newer"),
              std::string::npos);
    EXPECT_NE(readError("eaao-scenario v99\n").find("newer"),
              std::string::npos);
}

TEST(ScenarioSerialize, ParsesV2Sections)
{
    // serialize() emits the sectioned v2 format; a hand-written v2
    // file with extra (non-replay) sections parses to the same model.
    // Seeds above 2^53 read back exactly.
    const Scenario sc =
        readReplay(kHead + "title = demo\n"
                           "[platform]\n"
                           "seed = 18437146304806779853\n"
                           "profile = us-west1\n"
                           "hosts = 550\n"
                           "[tenants]\n"
                           "account -1 1000\n"
                           "service 0 0 1\n"
                           "[script]\n"
                           "route 0 5 0\n"
                           "[outputs]\n"
                           "note = ignored here\n");
    EXPECT_EQ(sc.seed, 18437146304806779853ULL);
    EXPECT_EQ(sc.profile, 2u);
    EXPECT_EQ(sc.host_count, 550u);
    ASSERT_EQ(sc.steps.size(), 1u);
    EXPECT_EQ(sc.steps[0].kind, ScenarioStep::Kind::Route);
    // And the canonical serialization round-trips.
    EXPECT_EQ(readReplay(sc.serialize()).serialize(), sc.serialize());
}

TEST(ScenarioGen, ShardAwareTopology)
{
    // The generator targets the sharded platform's lane structure: a
    // 550-host fleet (>= 5 shards on every profile), home-shard pins
    // confined to lanes 0..4, and idle gaps that include exact window
    // multiples so barrier-straddling schedules get exercised.
    bool saw_pin = false;
    bool saw_unpinned = false;
    bool saw_window_multiple = false;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const Scenario sc = generateScenario(31337, i);
        EXPECT_EQ(sc.host_count, 550u) << "index " << i;
        for (const ScenarioAccount &a : sc.accounts) {
            EXPECT_GE(a.shard, -1) << "index " << i;
            EXPECT_LT(a.shard, 5) << "index " << i;
            (a.shard >= 0 ? saw_pin : saw_unpinned) = true;
        }
        for (const ScenarioStep &st : sc.steps) {
            if (st.kind == ScenarioStep::Kind::Advance && st.a != 0 &&
                st.a % 30'000 == 0)
                saw_window_multiple = true;
        }
    }
    EXPECT_TRUE(saw_pin);
    EXPECT_TRUE(saw_unpinned);
    EXPECT_TRUE(saw_window_multiple);
}

TEST(ScenarioRunner, DeterministicLog)
{
    const Scenario sc = generateScenario(5, 2);
    EXPECT_EQ(runScenario(sc).render(), runScenario(sc).render());
}

TEST(ScenarioRunner, ConservesEvents)
{
    for (std::uint64_t i = 0; i < 8; ++i) {
        const ScenarioLog log = runScenario(generateScenario(5, i));
        EXPECT_EQ(log.events_scheduled, log.events_processed +
                                            log.events_cancelled +
                                            log.events_pending)
            << "index " << i;
    }
}

TEST(Invariants, HoldOnSampledScenarios)
{
    // A miniature fuzz campaign inside ctest: the cheap oracles on a
    // handful of random scenarios. The nightly fuzz-smoke CI job runs
    // the real campaign.
    InvariantOptions opts;
    opts.thread_trials = 2;
    for (std::uint64_t i = 0; i < 6; ++i) {
        const std::vector<Violation> violations =
            checkInvariants(generateScenario(1, i), opts);
        for (const Violation &v : violations)
            ADD_FAILURE() << "scenario " << i << " [" << v.oracle << "] "
                          << v.detail;
    }
}

TEST(Invariants, VerifyOracleHoldsOnOneScenario)
{
    InvariantOptions opts;
    opts.check_reference = false;
    opts.check_threads = false;
    opts.check_obs = false;
    opts.check_events = false;
    opts.check_verify = true;
    const std::vector<Violation> violations =
        checkInvariants(generateScenario(1, 0), opts);
    for (const Violation &v : violations)
        ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
}

TEST(Invariants, CatchInjectedRoutingFault)
{
    // The mutation self-test (docs/testing.md): fault 1 makes indexed
    // routing pick the most recently activated spare instance instead
    // of the least loaded one; the indexed-vs-reference oracle must
    // notice on some early scenario.
    InvariantOptions opts;
    opts.check_threads = false; // both arms share the fault; cheap skip
    opts.check_obs = false;
    bool caught = false;
    for (std::uint64_t i = 0; i < 24 && !caught; ++i) {
        Scenario sc = generateScenario(1, i);
        sc.fault = 1;
        caught = !checkInvariants(sc, opts).empty();
    }
    EXPECT_TRUE(caught);
}

TEST(Shrink, MinimizesInjectedFaultScenario)
{
    InvariantOptions opts;
    opts.check_threads = false;
    opts.check_obs = false;
    opts.check_events = false;
    const FailurePredicate still_fails = [&](const Scenario &candidate) {
        return !checkInvariants(candidate, opts).empty();
    };

    Scenario failing;
    bool found = false;
    for (std::uint64_t i = 0; i < 24 && !found; ++i) {
        failing = generateScenario(1, i);
        failing.fault = 1;
        found = still_fails(failing);
    }
    ASSERT_TRUE(found);

    const ShrinkResult result = shrink(failing, still_fails);
    EXPECT_TRUE(still_fails(result.scenario));
    EXPECT_LE(result.scenario.steps.size(), 10u);
    EXPECT_LE(result.scenario.steps.size(), failing.steps.size());
    EXPECT_GT(result.attempts, 0u);

    // The minimized scenario still round-trips through its replay file.
    EXPECT_TRUE(still_fails(readReplay(result.scenario.serialize())));
}

TEST(Shrink, PreservesPassingPredicateInput)
{
    // Shrinking with an always-true predicate collapses to the floor:
    // one account, one service, no steps.
    const Scenario sc = generateScenario(3, 1);
    const ShrinkResult result =
        shrink(sc, [](const Scenario &) { return true; });
    EXPECT_EQ(result.scenario.accounts.size(), 1u);
    EXPECT_EQ(result.scenario.services.size(), 1u);
    EXPECT_TRUE(result.scenario.steps.empty());
}

} // namespace
} // namespace eaao::testkit
