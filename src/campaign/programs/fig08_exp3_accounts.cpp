/**
 * @file
 * Figure 8 / Experiment 3 kernel: apparent-host footprint across
 * accounts (paper §5.1). Accounts (with home shards) come from the
 * campaign's [tenants] section; the launch schedule — which account
 * fires each cold launch — from [workload] schedule.
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

EAAO_CAMPAIGN_OBS_PROGRAM(fig08_exp3_accounts)
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

    // account <shard> — one standard account per line, one Gen 1
    // service each.
    std::vector<faas::AccountId> accounts;
    for (const campaign::SpecLine *line :
         spec.directives("tenants", "account")) {
        if (line->tokens.size() != 2)
            spec.fail(line->line_no, "expected: account <shard>");
        const std::int64_t last_shard =
            static_cast<std::int64_t>(platform.fleet().shardCount()) - 1;
        accounts.push_back(platform.createAccount(static_cast<std::uint32_t>(
            spec.intArg(*line, 1, 0, last_shard, "account shard"))));
    }
    std::vector<faas::ServiceId> services;
    for (const auto acct : accounts) {
        services.push_back(
            platform.deployService(acct, faas::ExecEnv::Gen1));
    }

    const std::vector<double> schedule =
        spec.numList("workload", "schedule");
    const int interval_min =
        static_cast<int>(spec.u32("workload", "interval_minutes"));

    core::TextTable table;
    table.header({"launch", "account", "apparent hosts", "cumulative"});
    std::set<std::uint64_t> cumulative;
    for (std::size_t launch = 0; launch < schedule.size(); ++launch) {
        const int a = static_cast<int>(schedule[launch]);
        core::LaunchOptions opts;
        const core::LaunchObservation obs =
            core::launchAndObserve(platform, services[a], opts);
        const auto apparent = obs.apparentHosts();
        cumulative.insert(apparent.begin(), apparent.end());
        table.row({core::format("%d", static_cast<int>(launch) + 1),
                   core::format("%d", a + 1),
                   core::format("%zu", apparent.size()),
                   core::format("%zu", cumulative.size())});
        platform.advance(sim::Duration::minutes(interval_min) - opts.hold);
    }
    table.print();

    obs::writeOutputs(obs_cfg, obs_set);
}
