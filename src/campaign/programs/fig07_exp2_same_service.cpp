/**
 * @file
 * Figure 7 / Experiment 2 kernel: apparent-host footprint of repeated
 * cold launches of the same service (paper §5.1). Each `variant` line
 * in the campaign's [workload] section runs the launch/cool-down loop
 * either reusing one service or deploying a fresh one per launch.
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

namespace {

void
runVariant(eaao::faas::Platform &platform, eaao::faas::AccountId acct,
           bool fresh_service_per_launch, const char *label, int launches,
           int interval_min)
{
    using namespace eaao;

    faas::ServiceId svc =
        platform.deployService(acct, faas::ExecEnv::Gen1);

    core::TextTable table;
    table.header({"launch", "apparent hosts", "cumulative"});
    std::set<std::uint64_t> cumulative;
    for (int launch = 1; launch <= launches; ++launch) {
        if (fresh_service_per_launch && launch > 1) {
            svc = platform.deployService(acct, faas::ExecEnv::Gen1);
            platform.redeployService(svc); // freshly built image
        }
        core::LaunchOptions opts;
        const core::LaunchObservation obs =
            core::launchAndObserve(platform, svc, opts);
        const auto apparent = obs.apparentHosts();
        cumulative.insert(apparent.begin(), apparent.end());
        table.row({core::format("%d", launch),
                   core::format("%zu", apparent.size()),
                   core::format("%zu", cumulative.size())});
        platform.advance(sim::Duration::minutes(interval_min) - opts.hold);
    }
    std::printf("%s\n", label);
    table.print();
    std::printf("\n");
}

} // namespace

EAAO_CAMPAIGN_OBS_PROGRAM(fig07_exp2_same_service)
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

    const int launches = static_cast<int>(spec.u32("workload", "launches"));
    const int interval_min =
        static_cast<int>(spec.u32("workload", "interval_minutes"));

    // variant <same_service|fresh_service> "<label>"
    for (const campaign::SpecLine *line :
         spec.directives("workload", "variant")) {
        if (line->tokens.size() != 3 ||
            (line->tokens[1] != "same_service" &&
             line->tokens[1] != "fresh_service")) {
            spec.fail(line->line_no,
                      "expected: variant <same_service|fresh_service> "
                      "\"<label>\"");
        }
        runVariant(platform, acct, line->tokens[1] == "fresh_service",
                   line->tokens[2].c_str(), launches, interval_min);
    }

    obs::writeOutputs(obs_cfg, obs_set);
}
