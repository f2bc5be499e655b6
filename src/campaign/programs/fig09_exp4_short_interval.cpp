/**
 * @file
 * Figure 9 / Experiment 4 kernel: repeated launches at a short
 * interval trigger the load balancer and spill instances onto helper
 * hosts (paper §5.1). The main run and the control arms — launch
 * interval, seed, and whether the table prints — are `run` directives
 * in the campaign's [workload] section.
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

namespace sim = eaao::sim;

namespace {

std::size_t
runInterval(const eaao::faas::DataCenterProfile &profile,
            std::uint64_t seed, sim::Duration interval, int launches,
            bool print, eaao::obs::Observer observer)
{
    using namespace eaao;
    faas::PlatformConfig cfg;
    cfg.profile = profile;
    cfg.seed = seed;
    cfg.obs = observer;
    faas::Platform platform(cfg);
    const auto acct = platform.createAccount();
    const auto svc = platform.deployService(acct, faas::ExecEnv::Gen1);

    core::TextTable table;
    table.header({"launch", "apparent hosts", "cumulative"});
    std::set<std::uint64_t> cumulative;
    std::size_t first = 0;
    for (int launch = 1; launch <= launches; ++launch) {
        core::LaunchOptions opts;
        opts.hold = sim::Duration::seconds(30);
        const core::LaunchObservation obs =
            core::launchAndObserve(platform, svc, opts);
        const auto apparent = obs.apparentHosts();
        cumulative.insert(apparent.begin(), apparent.end());
        if (launch == 1)
            first = cumulative.size();
        table.row({core::format("%d", launch),
                   core::format("%zu", apparent.size()),
                   core::format("%zu", cumulative.size())});
        if (launch < launches)
            platform.advance(interval - opts.hold);
    }
    if (print)
        table.print();
    return cumulative.size() - first;
}

} // namespace

EAAO_CAMPAIGN_OBS_PROGRAM(fig09_exp4_short_interval)
{
    using namespace eaao;
    const campaign::CampaignSpec &spec = ctx.spec;

    const obs::ObsConfig obs_cfg =
        obs::ObsConfig::fromArgs(ctx.argc, ctx.argv);
    obs::TrialSet obs_set(obs_cfg);

    const faas::DataCenterProfile profile =
        campaign::profileOf(spec, "platform", "profile");
    const int launches = static_cast<int>(spec.u32("workload", "launches"));

    // run <seed> <interval_min> — the main (printed) run, then the
    // control arms summarized in the interval table.
    const auto main_run = spec.directives("workload", "main_run");
    const auto controls = spec.directives("workload", "control");
    if (main_run.size() != 1)
        spec.fail(spec.file().section("workload")->line_no,
                  "[workload] needs exactly one 'main_run <seed> "
                  "<interval_min>' line");
    obs_set.prepare(
        static_cast<std::uint32_t>(1 + controls.size()));

    const auto seedOf = [&](const campaign::SpecLine *line) {
        if (line->tokens.size() != 3)
            spec.fail(line->line_no,
                      "expected: <directive> <seed> <interval_min>");
        return static_cast<std::uint64_t>(std::stoull(line->tokens[1]));
    };
    const auto intervalOf = [&](const campaign::SpecLine *line) {
        return sim::Duration::minutes(std::stoll(line->tokens[2]));
    };

    runInterval(profile, seedOf(main_run[0]), intervalOf(main_run[0]),
                launches, true, obs_set.observer(0));

    std::printf("\nextra hosts discovered after launch 1, by launch "
                "interval:\n\n");
    core::TextTable table;
    table.header({"interval", "new hosts after 6 launches"});
    for (std::size_t i = 0; i < controls.size(); ++i) {
        const std::size_t extra = runInterval(
            profile, seedOf(controls[i]), intervalOf(controls[i]),
            launches, false, obs_set.observer(static_cast<std::uint32_t>(i + 1)));
        table.row({controls[i]->tokens[2] + " min",
                   core::format("%zu", extra)});
    }
    table.print();

    obs::writeOutputs(obs_cfg, obs_set);
}
