/**
 * @file
 * Deterministic scenario model for the fuzzing testkit.
 *
 * A Scenario is a fully self-contained description of one simulated
 * run: the platform shape (data-center profile, fleet size, scheduler
 * knobs), the tenant topology (accounts with shards and quotas,
 * services with environments and sizes), and a flat step script
 * (connection bursts, request routing, idle gaps straddling the reap
 * window, mid-run scale and quota events). Scenarios are drawn from a
 * single seeded Rng::fork stream, so scenario i of a fuzz campaign is
 * a pure function of (base seed, i) — independent of thread count,
 * time budget, or which scenarios ran before it — and every scenario
 * round-trips through a plain-text replay file that the shrinker and
 * the committed regression corpus (tests/corpus/) use.
 */

#ifndef EAAO_TESTKIT_SCENARIO_HPP
#define EAAO_TESTKIT_SCENARIO_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace eaao::campaign {
class CampaignSpec;
}

namespace eaao::testkit {

/** One tenant account of a scenario. */
struct ScenarioAccount
{
    std::int32_t shard = -1;     //!< home shard; -1 = platform default
    std::uint32_t quota = 1000;  //!< per-service concurrent-instance cap
};

/** One deployed service of a scenario. */
struct ScenarioService
{
    std::uint32_t account = 0;  //!< index into Scenario::accounts
    std::uint8_t env = 0;       //!< 0 = Gen1, 1 = Gen2
    std::uint8_t size = 1;      //!< 0 Pico, 1 Small, 2 Medium, 3 Large
};

/**
 * One scripted operation. Steps carry raw payloads; the runner
 * (runner.hpp) interprets them against the live platform, clamping
 * where the platform API demands it (e.g. concurrency >= 1).
 */
struct ScenarioStep
{
    enum class Kind : std::uint8_t {
        Connect,        //!< scale service `target` to `a` connections
        Disconnect,     //!< drop all connections of service `target`
        Route,          //!< one request to `target`, service time `a` ms
        Burst,          //!< `a` requests to `target`, `b` ms each
        Advance,        //!< advance virtual time by `a` ms
        Restart,        //!< restart created-instance pick `a`
        SetConcurrency, //!< per-instance concurrency of `target` := `a`
        SetQuota,       //!< quota of account `target` := `a`
        Redeploy,       //!< redeploy service `target`
        SpendProbe,     //!< record every account's spend
        OpenLoop,       //!< open-loop arrival stream at `target` (the
                        //!< runner derives the whole ArrivalSpec —
                        //!< family, rate, burstiness, span, churn —
                        //!< from the raw `a`/`b` payloads, so every
                        //!< u32 pair is valid and shrinker-halvable)
    };

    Kind kind = Kind::Advance;
    std::uint32_t target = 0; //!< service index (account for SetQuota)
    std::uint32_t a = 0;      //!< main payload
    std::uint32_t b = 0;      //!< auxiliary payload
};

/** Number of ScenarioStep kinds (parse/render tables). */
inline constexpr std::size_t kStepKindCount = 11;

/** Render a step kind as its replay-file token. */
const char *toString(ScenarioStep::Kind kind);

/** A complete, replayable scenario. */
struct Scenario
{
    std::uint64_t seed = 1;
    std::uint8_t profile = 0;       //!< 0 us-east1, 1 us-central1, 2 us-west1
    std::uint32_t host_count = 0;   //!< fleet override; 0 = profile default
    bool isolate_accounts = false;  //!< Section 6 scheduling mitigation
    std::uint32_t hot_burst_min = 0;   //!< orchestrator override; 0 = default
    std::uint32_t fault = 0;           //!< OrchestratorConfig::fault_injection

    std::vector<ScenarioAccount> accounts;
    std::vector<ScenarioService> services;
    std::vector<ScenarioStep> steps;

    /**
     * @name Time-travel fork metadata (`[timetravel]` replay section)
     *
     * When set, steps [0, tt_prefix_steps) are the *prefix*: the part
     * of the script the fork fuzzer primed once and captured as an
     * `eaao-snap` image at window barrier tt_barrier. The remaining
     * steps are the *suffix*, compiled strictly after the barrier and
     * replayable straight from the image (docs/testing.md). The digest
     * pins the prefix: fromSpec() recomputes it and rejects a replay
     * whose prefix no longer matches the image the repro came from.
     * @{
     */
    bool has_timetravel = false;
    std::uint32_t tt_barrier = 0;       //!< capture window index
    std::uint32_t tt_prefix_steps = 0;  //!< steps [0, K) form the prefix
    std::uint64_t tt_prefix_digest = 0; //!< FNV-1a 64 of the prefix replay
    /** @} */

    /**
     * Serialize to the replay-file format: a v2 `replay` campaign
     * (docs/scenario-dsl.md) that fromSpec() reads back unchanged.
     */
    std::string serialize() const;

    /**
     * The one reader of replay scenarios: [platform], [tenants] (via
     * tenantsFromSpec), [script] and [timetravel] of @p spec. Other
     * sections belong to the campaign layer and are ignored. Throws
     * campaign::SpecError ("path:line: why") on the first bad line.
     */
    static Scenario fromSpec(const campaign::CampaignSpec &spec);
};

/**
 * The tenant topology of @p spec's `[tenants]` section, the grammar
 * replay files and the `loadgen` program share: `account <shard>
 * <quota>` (shard -1 = platform default) and `service <account>
 * <env 0/1> <size 0..3>` directives, at least one of each, every
 * service naming a declared account. Only `accounts` and `services`
 * of the result are set. Throws campaign::SpecError.
 */
Scenario tenantsFromSpec(const campaign::CampaignSpec &spec);

/** Tuning of the scenario generator. */
struct GeneratorOptions
{
    std::uint32_t max_accounts = 3;
    std::uint32_t max_services = 4;
    std::uint32_t min_steps = 6;
    std::uint32_t max_steps = 48;
    std::uint32_t max_connect = 120;      //!< largest connection burst
    std::uint32_t max_burst = 60;         //!< largest request burst
    std::uint32_t max_advance_ms = 240'000; //!< longest idle gap (4 min)
    bool allow_gen2 = true;
    bool allow_dynamic_profile = true;    //!< include us-central1 shapes
};

/**
 * Draw scenario @p index of the campaign seeded by @p base_seed.
 *
 * The stream is Rng(base_seed).fork(index), so generation is
 * insensitive to how many scenarios ran before and to the worker that
 * draws it. The generator is biased toward the states the paper shows
 * placement conclusions are sensitive to: bursty arrivals that flip
 * services hot, idle gaps that straddle the ~2-minute reap hold and
 * the 15-minute maximum, helper-set churn through repeated
 * connect/disconnect cycles, and mid-run scale events (quota
 * promotions, concurrency changes, redeploys, instance restarts).
 */
Scenario generateScenario(std::uint64_t base_seed, std::uint64_t index,
                          const GeneratorOptions &opts = {});

/**
 * The digest fromSpec() checks a `[timetravel]` section against: FNV-1a
 * 64 of the canonical serialization of @p sc restricted to its first
 * tt_prefix_steps steps, with the `[timetravel]` section itself
 * stripped — i.e. the replay file of the prefix the image was
 * captured from.
 */
std::uint64_t timeTravelPrefixDigest(const Scenario &sc);

/**
 * Compose @p prefix and @p suffix into one time-travel scenario:
 * steps = prefix.steps + suffix, with the `[timetravel]` metadata
 * (barrier, prefix length, prefix digest) filled in. The prefix's
 * platform shape and tenant topology carry over unchanged — a fork
 * restores the primed image, so it cannot differ in anything the
 * snapshot config fingerprint covers.
 */
Scenario composeTimeTravel(const Scenario &prefix,
                           std::vector<ScenarioStep> suffix,
                           std::uint32_t barrier);

/**
 * Draw divergent-suffix script @p fork for scenario @p index of the
 * campaign seeded by @p base_seed. Like generateScenario, a pure
 * function of its arguments: the stream is
 * Rng(base_seed).fork(index).fork(kSuffixForkSalt + fork), so every
 * fork of one primed image explores an independent branch and any
 * fork can be re-drawn for replay without re-running the campaign.
 * Draws 1..max(1, @p max_steps) steps against @p prefix's topology.
 */
std::vector<ScenarioStep> generateSuffixSteps(std::uint64_t base_seed,
                                              std::uint64_t index,
                                              std::uint64_t fork,
                                              const Scenario &prefix,
                                              std::uint32_t max_steps = 8,
                                              const GeneratorOptions &opts = {});

} // namespace eaao::testkit

#endif // EAAO_TESTKIT_SCENARIO_HPP
