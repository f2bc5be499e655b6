/**
 * @file
 * Program registry and the title/notes/trigger-log printing contract.
 */

#include "campaign/runner.hpp"

#include "support/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace eaao::campaign {

namespace {

std::map<std::string, Program> &
registry()
{
    static std::map<std::string, Program> programs;
    return programs;
}

/**
 * The first `--trace-json` / `--metrics-json` flag in @p argv, in
 * either spelling, or an empty string. The environment fallbacks do
 * not count: a variable set for other runs is not a request.
 */
std::string
obsFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string name = arg.substr(0, arg.find('='));
        if (name == "--trace-json" || name == "--metrics-json")
            return name;
    }
    return {};
}

} // namespace

void
registerProgram(const std::string &name, Program program)
{
    auto [it, inserted] = registry().emplace(name, std::move(program));
    if (!inserted) {
        std::fprintf(stderr,
                     "fatal: campaign program '%s' registered twice\n",
                     name.c_str());
        std::abort();
    }
    (void)it;
}

const Program *
findProgram(const std::string &name)
{
    const auto it = registry().find(name);
    return it == registry().end() ? nullptr : &it->second;
}

std::vector<std::string>
programNames()
{
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &[name, fn] : registry())
        names.push_back(name);
    return names;
}

int
runCampaign(const CampaignSpec &spec, int argc, char **argv)
{
    const Program *program = findProgram(spec.program());
    if (program == nullptr) {
        std::string known;
        for (const std::string &name : programNames()) {
            known += known.empty() ? "" : ", ";
            known += name;
        }
        throw SpecError(spec.file().path +
                        ": unknown program '" + spec.program() +
                        "' (known: " + known + ")");
    }
    if (const std::string flag = obsFlag(argc, argv);
        !flag.empty() && !program->reads_obs) {
        std::string readers;
        for (const auto &[name, p] : registry()) {
            if (p.reads_obs)
                readers += (readers.empty() ? "" : ", ") + name;
        }
        throw SpecError(spec.file().path + ": " + flag + ": program '" +
                        spec.program() + "' writes no trace or metrics (" +
                        readers + " do)");
    }

    RunContext ctx{spec, support::threadsFromArgs(argc, argv), argc,
                   argv, TriggerEngine{}};
    for (Trigger &trigger : spec.triggers())
        ctx.triggers.add(std::move(trigger));

    if (!spec.title().empty())
        std::printf("%s\n\n", spec.title().c_str());

    program->fn(ctx);

    const std::vector<std::string> notes = spec.notes();
    if (!notes.empty()) {
        // `note_gap = 0` when the program already ends with a blank
        // line (legacy layouts differ; parity is byte-exact).
        if (spec.flag("outputs", "note_gap", true))
            std::printf("\n");
        for (const std::string &note : notes)
            std::printf("%s\n", note.c_str());
    }

    if (spec.triggerLog()) {
        std::printf("\ntrigger log (%zu firing%s)\n",
                    ctx.triggers.firings().size(),
                    ctx.triggers.firings().size() == 1 ? "" : "s");
        for (const TriggerFiring &firing : ctx.triggers.firings()) {
            std::printf("  t=%.0fs %s: %s\n", firing.t_s,
                        firing.name.c_str(), firing.message.c_str());
        }
    }
    return 0;
}

} // namespace eaao::campaign
