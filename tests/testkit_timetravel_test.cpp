/**
 * @file
 * Time-travel triage tests: snapshot-forked differential fuzzing.
 *
 * Covers the `[timetravel]` replay metadata (serialize/parse round
 * trip, digest pinning), deterministic suffix generation, the
 * prime-once/fork-many runner path (runScenarioToBarrier,
 * restoreScenarioBarrier, runScenarioForked), the prefix-consistency
 * and fork-determinism oracles, the planted fork-path fault
 * (fault_injection 6), and the suffix-only shrinker mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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
        campaign::CampaignSpec::parse(text, "tt.scenario"));
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

/** A prefix with real traffic: generated, so it exercises the DSL. */
Scenario
generatedPrefix(std::uint64_t index)
{
    return generateScenario(11, index);
}

/**
 * The fault-6 bite shape (tests/corpus/mutation-timetravel-min): a
 * 101 rps Poisson stream with 131 ms service against a quota-4
 * account keeps the admission queue saturated, so a dispatch timer
 * is always armed at the window-0 barrier where the image is
 * captured — exactly what the planted re-arm fault needs to bite.
 */
Scenario
biteScenario(std::uint32_t fault)
{
    Scenario sc;
    sc.seed = 7;
    sc.profile = 0;
    sc.host_count = 120;
    sc.fault = fault;
    sc.accounts.push_back({-1, 4});
    sc.services.push_back({0, 0, 1});
    ScenarioStep st;
    st.kind = ScenarioStep::Kind::OpenLoop;
    st.target = 0;
    st.a = 81; // Poisson, 101 rps, 131 ms mean service
    st.b = 10; // 40 s span, no churn
    sc.steps.push_back(st);
    return composeTimeTravel(sc, {}, 0);
}

/** Small oracle arms so the heavier tests stay quick. */
InvariantOptions
quickOpts()
{
    InvariantOptions opts;
    opts.threads = 2;
    return opts;
}

TEST(TimeTravel, ComposeSerializeParseRoundTrips)
{
    const Scenario prefix = generatedPrefix(0);
    const std::vector<ScenarioStep> suffix =
        generateSuffixSteps(11, 0, 0, prefix);
    ASSERT_FALSE(suffix.empty());
    const Scenario sc = composeTimeTravel(prefix, suffix, 3);
    EXPECT_TRUE(sc.has_timetravel);
    EXPECT_EQ(sc.tt_barrier, 3u);
    EXPECT_EQ(sc.tt_prefix_steps, prefix.steps.size());
    EXPECT_EQ(sc.steps.size(), prefix.steps.size() + suffix.size());
    EXPECT_EQ(sc.tt_prefix_digest, timeTravelPrefixDigest(sc));

    const std::string text = sc.serialize();
    EXPECT_NE(text.find("[timetravel]"), std::string::npos);
    const Scenario parsed = readReplay(text);
    EXPECT_TRUE(parsed.has_timetravel);
    EXPECT_EQ(parsed.tt_barrier, sc.tt_barrier);
    EXPECT_EQ(parsed.tt_prefix_steps, sc.tt_prefix_steps);
    EXPECT_EQ(parsed.tt_prefix_digest, sc.tt_prefix_digest);
    EXPECT_EQ(parsed.serialize(), text);
}

TEST(TimeTravel, ParseRejectsDigestMismatch)
{
    const Scenario sc = biteScenario(0);
    std::string text = sc.serialize();
    const std::size_t pos = text.find("prefix_digest = ");
    ASSERT_NE(pos, std::string::npos);
    // Flip the first digest nibble to a guaranteed-different hex char.
    char &nibble = text[pos + std::string("prefix_digest = ").size()];
    nibble = nibble == '0' ? '1' : '0';

    const std::string error = readError(text);
    EXPECT_NE(error.find("prefix digest mismatch"), std::string::npos)
        << error;
    // The error names the digest line of the file.
    const auto digest_line = 1 + std::count(text.begin(),
                                            text.begin() + pos, '\n');
    EXPECT_EQ(error.rfind("tt.scenario:" + std::to_string(digest_line) +
                              ": ",
                          0),
              0u)
        << error;
}

TEST(TimeTravel, ParseRejectsPrefixStepsBeyondScript)
{
    const Scenario sc = biteScenario(0);
    std::string text = sc.serialize();
    const std::size_t pos = text.find("prefix_steps = 1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("prefix_steps = 1").size(),
                 "prefix_steps = 9");
    const std::string error = readError(text);
    EXPECT_NE(error.find("prefix_steps 9 exceeds"), std::string::npos)
        << error;
}

TEST(TimeTravel, ParseRejectsIncompleteSection)
{
    const Scenario sc = biteScenario(0);
    std::string text = sc.serialize();
    const std::size_t pos = text.find("prefix_digest = ");
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, text.find('\n', pos) - pos + 1);
    const std::string error = readError(text);
    EXPECT_NE(error.find("[timetravel] needs"), std::string::npos)
        << error;
}

TEST(TimeTravel, DigestCoversExactlyThePrefix)
{
    const Scenario prefix = generatedPrefix(1);
    const Scenario a = composeTimeTravel(
        prefix, generateSuffixSteps(11, 1, 0, prefix), 2);
    const Scenario b = composeTimeTravel(
        prefix, generateSuffixSteps(11, 1, 1, prefix), 2);
    // Different suffixes, same prefix: same snapshot reference.
    EXPECT_EQ(a.tt_prefix_digest, b.tt_prefix_digest);

    Scenario edited = prefix;
    ASSERT_FALSE(edited.steps.empty());
    edited.steps[0].a ^= 1;
    const Scenario c = composeTimeTravel(
        edited, generateSuffixSteps(11, 1, 0, prefix), 2);
    EXPECT_NE(a.tt_prefix_digest, c.tt_prefix_digest);
}

TEST(TimeTravel, SuffixGenerationIsPureAndForkDivergent)
{
    const Scenario prefix = generatedPrefix(2);
    const std::vector<ScenarioStep> again_a =
        generateSuffixSteps(11, 2, 0, prefix);
    const std::vector<ScenarioStep> again_b =
        generateSuffixSteps(11, 2, 0, prefix);
    ASSERT_EQ(again_a.size(), again_b.size());
    for (std::size_t i = 0; i < again_a.size(); ++i) {
        EXPECT_EQ(again_a[i].kind, again_b[i].kind);
        EXPECT_EQ(again_a[i].target, again_b[i].target);
        EXPECT_EQ(again_a[i].a, again_b[i].a);
        EXPECT_EQ(again_a[i].b, again_b[i].b);
    }

    // Across fork ids the streams diverge (on serialized step text —
    // at least one of the first few forks must differ from fork 0).
    const auto script = [&](std::uint64_t fork) {
        Scenario sc = prefix;
        sc.steps = generateSuffixSteps(11, 2, fork, prefix);
        return sc.serialize();
    };
    const std::string fork0 = script(0);
    bool diverged = false;
    for (std::uint64_t fork = 1; fork < 5 && !diverged; ++fork)
        diverged = script(fork) != fork0;
    EXPECT_TRUE(diverged);
}

TEST(TimeTravel, ForkedRunMatchesStraightComposedRun)
{
    const Scenario prefix = generatedPrefix(3);
    const Scenario sc = composeTimeTravel(
        prefix, generateSuffixSteps(11, 3, 0, prefix), 1);

    BarrierPrime prime;
    std::string error;
    ASSERT_TRUE(runScenarioToBarrier(sc, {}, prime, error)) << error;

    std::string forked;
    ASSERT_TRUE(runScenarioForked(sc, {}, prime, forked, error)) << error;
    EXPECT_EQ(forked, runScenarioSharded(sc));
}

TEST(TimeTravel, PrimeIsReusableAcrossForks)
{
    const Scenario prefix = generatedPrefix(4);
    const Scenario primed_sc = composeTimeTravel(prefix, {}, 1);
    BarrierPrime prime;
    std::string error;
    ASSERT_TRUE(runScenarioToBarrier(primed_sc, {}, prime, error)) << error;

    // Two divergent suffixes branch from the one image; each must
    // match its own straight composed run.
    for (std::uint64_t fork = 0; fork < 2; ++fork) {
        SCOPED_TRACE(fork);
        const Scenario sc = composeTimeTravel(
            prefix, generateSuffixSteps(11, 4, fork, prefix), 1);
        std::string forked;
        ASSERT_TRUE(runScenarioForked(sc, {}, prime, forked, error))
            << error;
        EXPECT_EQ(forked, runScenarioSharded(sc));
    }
}

TEST(TimeTravel, PrefixRestoreConsistentAcrossGroupings)
{
    const Scenario prefix = generatedPrefix(5);
    const Scenario sc = composeTimeTravel(
        prefix, generateSuffixSteps(11, 5, 0, prefix), 2);
    BarrierPrime prime;
    std::string error;
    ASSERT_TRUE(runScenarioToBarrier(sc, {}, prime, error)) << error;

    // The acceptance grouping grid: one group, two, and one per lane.
    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ShardedRunOptions ro;
        ro.threads = threads;
        std::string log;
        ASSERT_TRUE(restoreScenarioBarrier(sc, ro, prime, log, error))
            << error;
        EXPECT_EQ(log, prime.prefix_log);
    }
}

TEST(TimeTravel, OraclesHoldOnGeneratedForks)
{
    const Scenario prefix = generatedPrefix(6);
    const InvariantOptions opts = quickOpts();
    const Scenario primed_sc = composeTimeTravel(prefix, {}, 1);
    TimeTravelPrime prime;
    std::string error;
    ASSERT_TRUE(primeTimeTravel(primed_sc, opts, prime, error)) << error;

    for (std::uint64_t fork = 0; fork < 2; ++fork) {
        SCOPED_TRACE(fork);
        const Scenario sc = composeTimeTravel(
            prefix, generateSuffixSteps(11, 6, fork, prefix), 1);
        const std::vector<Violation> violations =
            checkTimeTravelForks(sc, opts, &prime);
        for (const Violation &v : violations)
            ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
    }
}

TEST(TimeTravel, CatchesInjectedForkFault)
{
    // Fault 6 re-arms admission dispatch timers from the stale base
    // startup estimate — but only on the fork path (appendOps), so
    // the straight composed run is clean and only the fork-vs-
    // straight differential can see it.
    const Scenario sc = biteScenario(6);
    const std::vector<Violation> violations =
        checkTimeTravelForks(sc, quickOpts());
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].oracle, "fork");

    // The same scenario with the fault knob reset holds everywhere.
    EXPECT_TRUE(checkTimeTravelForks(biteScenario(0), quickOpts()).empty());
}

TEST(TimeTravel, SuffixOnlyShrinkPinsPrefix)
{
    // Pad the failing fork with junk suffix steps; the shrinker must
    // strip the suffix down (fault 6 bites even with an empty one)
    // while leaving the prefix — the snapshot reference — untouched,
    // so the cached prime stays valid for every candidate.
    Scenario prefix = biteScenario(6);
    prefix.has_timetravel = false; // recover the raw prefix script
    std::vector<ScenarioStep> suffix;
    for (std::uint32_t i = 0; i < 6; ++i) {
        ScenarioStep st;
        st.kind = i % 2 == 0 ? ScenarioStep::Kind::Advance
                             : ScenarioStep::Kind::Route;
        st.target = 0;
        st.a = 40 + i;
        suffix.push_back(st);
    }
    const Scenario failing = composeTimeTravel(prefix, suffix, 0);

    const InvariantOptions opts = quickOpts();
    TimeTravelPrime prime;
    std::string error;
    ASSERT_TRUE(primeTimeTravel(composeTimeTravel(prefix, {}, 0), opts,
                                prime, error))
        << error;
    const FailurePredicate still_fails =
        [&opts, &prime](const Scenario &candidate) {
            return !checkTimeTravelForks(candidate, opts, &prime).empty();
        };
    ASSERT_TRUE(still_fails(failing));

    const ShrinkResult shrunk = shrink(failing, still_fails);
    EXPECT_TRUE(still_fails(shrunk.scenario));
    // Prefix pinned byte-for-byte; suffix minimized to <= 3 steps.
    ASSERT_EQ(shrunk.scenario.tt_prefix_steps, failing.tt_prefix_steps);
    for (std::uint32_t i = 0; i < failing.tt_prefix_steps; ++i) {
        EXPECT_EQ(shrunk.scenario.steps[i].a, failing.steps[i].a);
        EXPECT_EQ(shrunk.scenario.steps[i].b, failing.steps[i].b);
    }
    EXPECT_LE(shrunk.scenario.steps.size() -
                  shrunk.scenario.tt_prefix_steps,
              3u);
    EXPECT_EQ(shrunk.scenario.tt_prefix_digest, failing.tt_prefix_digest);

    // The minimized repro still round-trips through its replay file
    // (the digest the parse gate recomputes is still the prefix's).
    EXPECT_EQ(readReplay(shrunk.scenario.serialize()).serialize(),
              shrunk.scenario.serialize());
}

} // namespace
} // namespace eaao::testkit
