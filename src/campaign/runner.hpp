/**
 * @file
 * Campaign program registry and the generic execution entry point
 * used by `bench/run_campaign`.
 *
 * A campaign file names its kernel with `[campaign] program = <name>`;
 * the kernel (one small function under src/campaign/programs/) reads
 * every knob — seeds, sweep lists, platform shape, notes — from the
 * spec and owns only the aggregation and table-printing logic that is
 * unique to its figure. The driver prints the campaign title before
 * the program runs and the declared `[outputs]` notes (plus the
 * trigger firing log, when requested) after it returns, so ported
 * campaigns stay byte-identical to the legacy per-figure binaries.
 */

#ifndef EAAO_CAMPAIGN_RUNNER_HPP
#define EAAO_CAMPAIGN_RUNNER_HPP

#include "campaign/spec.hpp"
#include "campaign/trigger.hpp"

#include <functional>
#include <string>
#include <vector>

namespace eaao::campaign {

/** Everything a campaign program sees. */
struct RunContext
{
    const CampaignSpec &spec;
    unsigned threads = 1;

    /**
     * The driver's argv, so programs reuse the stock support::
     * helpers (threadsFromArgs, maybeWriteBenchJson, ...) unchanged.
     */
    int argc = 0;
    char **argv = nullptr;

    /** Armed with the spec's `[triggers]`; empty() when none. */
    TriggerEngine triggers;
};

using ProgramFn = std::function<void(RunContext &)>;

/** A registered campaign kernel. */
struct Program
{
    ProgramFn fn;
    /**
     * True when the kernel reads obs::ObsConfig, i.e. writes the
     * `--trace-json` / `--metrics-json` outputs. runCampaign() refuses
     * those flags for any other program rather than ignore them.
     */
    bool reads_obs = false;
};

/**
 * Register @p program under @p name (called from static initializers
 * in the src/campaign/programs/ kernels via EAAO_CAMPAIGN_PROGRAM or
 * EAAO_CAMPAIGN_OBS_PROGRAM). Duplicate names are a programming error
 * and abort.
 */
void registerProgram(const std::string &name, Program program);

/** The registered kernel, or nullptr when unknown. */
const Program *findProgram(const std::string &name);

/** All registered program names, sorted. */
std::vector<std::string> programNames();

/**
 * Execute @p spec: resolve the program, print the title, run, then
 * print notes and (if requested) the trigger log. Returns the process
 * exit code. An unknown program name, or an explicit `--trace-json` /
 * `--metrics-json` flag for a program that writes neither, throws
 * SpecError before anything is printed.
 */
int runCampaign(const CampaignSpec &spec, int argc, char **argv);

/** Registers a campaign program at static-init time. */
#define EAAO_CAMPAIGN_PROGRAM_AS(name, reads_obs)                         \
    static void eaaoProgram_##name(::eaao::campaign::RunContext &ctx);    \
    namespace {                                                           \
    const bool eaao_registered_##name = [] {                              \
        ::eaao::campaign::registerProgram(                                \
            #name, {&eaaoProgram_##name, reads_obs});                     \
        return true;                                                      \
    }();                                                                  \
    }                                                                     \
    static void eaaoProgram_##name(::eaao::campaign::RunContext &ctx)

/** A program that writes no trace or metrics output. */
#define EAAO_CAMPAIGN_PROGRAM(name) EAAO_CAMPAIGN_PROGRAM_AS(name, false)

/** A program that reads obs::ObsConfig (trace and metrics output). */
#define EAAO_CAMPAIGN_OBS_PROGRAM(name) EAAO_CAMPAIGN_PROGRAM_AS(name, true)

} // namespace eaao::campaign

#endif // EAAO_CAMPAIGN_RUNNER_HPP
