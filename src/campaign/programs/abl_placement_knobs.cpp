/**
 * @file
 * Ablation kernel: the two placement knobs DESIGN.md calls out — the
 * helper chunk size (how aggressively the load balancer spreads a hot
 * service) and the demand-window length — and their effect on the
 * attack surface. Sweeps come from the campaign's [workload] section;
 * their points run as parallel trials.
 */

#include <cstdio>
#include <set>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "exp/trial_runner.hpp"
#include "faas/platform.hpp"
#include "support/bench_timer.hpp"

namespace {

using namespace eaao;

struct Outcome
{
    std::size_t primed_footprint = 0; //!< hosts after priming one service
    double occupancy = 0.0;           //!< full campaign, fraction of fleet
    double coverage = 0.0;            //!< victim coverage
};

Outcome
evaluate(const faas::DataCenterProfile &profile,
         const faas::OrchestratorConfig &orch, std::uint64_t seed,
         std::uint32_t victim_count)
{
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.orchestrator = orch;
    cfg.seed = seed;
    faas::Platform p(cfg);

    const auto attacker = p.createAccount(0);
    const auto victim = p.createAccount(1);

    // Primed footprint of a single service.
    const auto probe = p.deployService(attacker, faas::ExecEnv::Gen1);
    core::PrimeOptions prime;
    prime.keep_last_connected = false;
    const auto launches = core::primeService(p, probe, prime);
    std::set<std::uint64_t> footprint;
    for (const auto &obs : launches) {
        const auto hosts = obs.apparentHosts();
        footprint.insert(hosts.begin(), hosts.end());
    }
    p.advance(sim::Duration::minutes(45));

    // Full campaign and coverage.
    const auto attack =
        core::runOptimizedCampaign(p, attacker, core::CampaignConfig{});
    const auto vsvc = p.deployService(victim, faas::ExecEnv::Gen1);
    const auto vids = p.connect(vsvc, victim_count);
    const auto cov =
        core::measureCoverageOracle(p, attack.occupied_hosts, vids);

    Outcome out;
    out.primed_footprint = footprint.size();
    out.occupancy = static_cast<double>(attack.occupied_hosts.size()) /
                    static_cast<double>(p.fleet().size());
    out.coverage = cov.coverage();
    return out;
}

} // namespace

EAAO_CAMPAIGN_PROGRAM(abl_placement_knobs)
{
    const campaign::CampaignSpec &spec = ctx.spec;

    const faas::DataCenterProfile base_profile =
        campaign::profileOf(spec, "platform", "profile");
    const std::uint64_t chunk_seed =
        spec.u64("platform", "chunk_seed");
    const std::uint64_t window_seed =
        spec.u64("platform", "window_seed");
    const std::uint32_t victim_count =
        spec.u32("verify", "victim_instances");

    // Both sweeps form one trial list, chunk points first: every point
    // is an independent platform with its own seed, and its row is
    // printed from its slot, so the tables match any --threads value.
    std::vector<std::uint32_t> chunks;
    for (const double chunk_val : spec.numList("workload", "chunk_sweep"))
        chunks.push_back(static_cast<std::uint32_t>(chunk_val));
    std::vector<int> windows;
    for (const double window_val : spec.numList("workload", "window_sweep"))
        windows.push_back(static_cast<int>(window_val));

    support::BenchTimer timer(spec.name(), ctx.threads, chunk_seed);
    const std::vector<Outcome> outcomes = exp::runTrials(
        chunks.size() + windows.size(), chunk_seed,
        [&](exp::TrialContext &trial) {
            if (trial.index < chunks.size()) {
                const std::uint32_t chunk = chunks[trial.index];
                faas::DataCenterProfile profile = base_profile;
                profile.helper_chunk = chunk;
                return evaluate(profile, faas::OrchestratorConfig{},
                                chunk_seed + chunk, victim_count);
            }
            const int window_min = windows[trial.index - chunks.size()];
            faas::OrchestratorConfig orch;
            orch.demand_window = sim::Duration::minutes(window_min);
            return evaluate(base_profile, orch, window_seed + window_min,
                            victim_count);
        },
        ctx.threads);
    support::maybeWriteBenchJson(ctx.argc, ctx.argv, timer.stop());

    // ---- Helper chunk sweep. ----
    std::printf("-- helper chunk (hosts added per hot launch) --\n");
    core::TextTable chunk_table;
    chunk_table.header({"helper_chunk", "primed footprint", "occupancy",
                        "victim coverage"});
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const Outcome &out = outcomes[i];
        chunk_table.row({core::format("%u", chunks[i]),
                         core::format("%zu", out.primed_footprint),
                         core::percent(out.occupancy),
                         core::percent(out.coverage)});
    }
    chunk_table.print();
    std::printf("\nchunk 0 disables the load balancer entirely: the "
                "optimized strategy\ndegenerates to the naive one "
                "(base hosts only, low cross-account coverage).\n\n");

    // ---- Demand window sweep. ----
    std::printf("-- demand window (hotness memory) --\n");
    core::TextTable window_table;
    window_table.header({"window (min)", "primed footprint",
                         "occupancy", "victim coverage"});
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const Outcome &out = outcomes[chunks.size() + i];
        window_table.row({core::format("%d", windows[i]),
                          core::format("%zu", out.primed_footprint),
                          core::percent(out.occupancy),
                          core::percent(out.coverage)});
    }
    window_table.print();
}
