/**
 * @file
 * Figure 10 / Experiment 4 (episodes) kernel: helper-host footprints
 * of different services overlap but differ (paper §5.1). Each episode
 * deploys a fresh service and primes it; the helper footprint is the
 * difference between the full and base-launch footprints.
 */

#include <cstdio>
#include <set>
#include <vector>

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "core/strategy.hpp"
#include "faas/platform.hpp"
#include "obs/export.hpp"

EAAO_CAMPAIGN_OBS_PROGRAM(fig10_exp4_episodes)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const obs::ObsConfig obs_cfg =
        obs::ObsConfig::fromArgs(ctx.argc, ctx.argv);
    obs::TrialSet obs_set(obs_cfg);
    obs_set.prepare(1);

    faas::PlatformConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.seed = spec.u64("platform", "seed");
    cfg.obs = obs_set.observer(0);
    faas::Platform platform(cfg);
    const auto acct = platform.createAccount();

    const int episodes = static_cast<int>(spec.u32("workload", "episodes"));
    const int cooldown_min =
        static_cast<int>(spec.u32("workload", "cooldown_minutes"));

    core::TextTable table;
    table.header({"episode", "apparent helper hosts",
                  "cumulative helper hosts"});
    std::set<std::uint64_t> cumulative_helpers;

    for (int episode = 1; episode <= episodes; ++episode) {
        const auto svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);

        core::PrimeOptions prime;
        prime.keep_last_connected = false;
        const auto launches = primeService(platform, svc, prime);

        const std::set<std::uint64_t> base =
            launches.front().apparentHosts();
        std::set<std::uint64_t> all;
        for (const auto &obs : launches) {
            const auto hosts = obs.apparentHosts();
            all.insert(hosts.begin(), hosts.end());
        }
        std::set<std::uint64_t> helpers;
        for (const auto key : all) {
            if (base.count(key) == 0)
                helpers.insert(key);
        }
        cumulative_helpers.insert(helpers.begin(), helpers.end());
        table.row({core::format("%d", episode),
                   core::format("%zu", helpers.size()),
                   core::format("%zu", cumulative_helpers.size())});

        // Cool-down between episodes so the next service starts cold.
        platform.advance(sim::Duration::minutes(cooldown_min));
    }
    table.print();

    obs::writeOutputs(obs_cfg, obs_set);
}
