/**
 * @file
 * The `replay` program: executes the scenario embedded in the
 * campaign's [platform]/[tenants]/[script] sections through testkit's
 * deterministic runner and prints the canonical log — the same unit
 * the fuzzer's invariant oracles compare. Replay files written by the
 * fuzzer and the shrinker (tests/corpus/) are campaigns of this
 * program, so `run_campaign` runs them as they are; [triggers]
 * conditions are evaluated against counters sampled after every step.
 */

#include "campaign/runner.hpp"
#include "testkit/runner.hpp"
#include "testkit/scenario.hpp"

#include <cstdio>

EAAO_CAMPAIGN_PROGRAM(replay)
{
    using namespace eaao;

    const testkit::Scenario scenario = testkit::Scenario::fromSpec(ctx.spec);

    testkit::RunOptions opts;
    if (!ctx.triggers.empty()) {
        opts.step_hook = [&ctx](const testkit::RunOptions::StepSample &s) {
            ctx.triggers.record("orch.step", s.t_s,
                                static_cast<double>(s.step));
            ctx.triggers.record("orch.instances", s.t_s,
                                static_cast<double>(s.instances));
            ctx.triggers.record("orch.placements", s.t_s,
                                static_cast<double>(s.placements));
            ctx.triggers.record("orch.routed", s.t_s,
                                static_cast<double>(s.routed));
            ctx.triggers.evaluateAt(s.t_s);
        };
    }

    const testkit::ScenarioLog log = testkit::runScenario(scenario, opts);
    std::fputs(log.render().c_str(), stdout);
}
