/**
 * @file
 * The one generic campaign driver: executes any
 * `eaao-scenario v2` campaign file, replacing the per-figure bench
 * binaries. That covers the .scenario files in bench/campaigns/ and
 * the fuzzer's replay files in tests/corpus/, which are campaigns of
 * the `replay` program.
 *
 *   run_campaign FILE [--threads N] [--bench-json F] [--trace-json F]
 *                     [--metrics-json F]
 *   run_campaign --list [DIR]       # summarize a campaign directory
 *   run_campaign --describe FILE    # pretty-print resolved sections
 *
 * An unknown flag, in `--flag value` or `--flag=value` form, exits 2
 * before anything runs. A malformed file prints one line-precise
 * diagnostic to stderr and exits 2 (docs/scenario-dsl.md documents
 * the message catalog); stdout of a ported campaign is
 * byte-identical to its legacy binary (CI's campaign-parity job diffs
 * against bench/campaigns/expected/).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/report.hpp"

namespace {

using namespace eaao;

int
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: run_campaign FILE [--threads N] [--bench-json F]\n"
        "                         [--trace-json F] [--metrics-json F]\n"
        "       run_campaign --list [DIR]\n"
        "       run_campaign --describe FILE\n");
    return to == stdout ? 0 : 2;
}

/** The flags whose value the support:: helpers read from argv. */
bool
isValueFlag(const std::string &flag)
{
    return flag == "--threads" || flag == "--bench-json" ||
           flag == "--trace-json" || flag == "--metrics-json";
}

int
listCampaigns(const std::string &dir)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir)) {
        std::fprintf(stderr, "run_campaign: not a directory: %s\n",
                     dir.c_str());
        return 2;
    }
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".scenario")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());

    core::TextTable table;
    table.header({"campaign", "program", "title"});
    for (const std::string &path : paths) {
        try {
            const campaign::CampaignSpec spec =
                campaign::CampaignSpec::load(path);
            table.row({spec.name(), spec.program(), spec.title()});
        } catch (const campaign::SpecError &e) {
            table.row({fs::path(path).stem().string(), "(error)",
                       e.what()});
        }
    }
    table.print();
    std::printf("\n%zu campaign file%s in %s\n", paths.size(),
                paths.size() == 1 ? "" : "s", dir.c_str());
    return 0;
}

int
describeCampaign(const std::string &path)
{
    const campaign::CampaignSpec spec = campaign::CampaignSpec::load(path);
    std::printf("campaign %s  (program: %s)\n", spec.name().c_str(),
                spec.program().c_str());
    if (!spec.title().empty())
        std::printf("title    %s\n", spec.title().c_str());
    std::printf("\n%s", spec.file().render().c_str());

    const std::vector<campaign::Trigger> triggers = spec.triggers();
    if (!triggers.empty()) {
        std::printf("\nresolved triggers\n");
        std::vector<std::string> counters;
        for (const campaign::Trigger &t : triggers) {
            std::printf("  %s: %s -> \"%s\"\n", t.name.c_str(),
                        campaign::renderExpr(*t.condition).c_str(),
                        t.message.c_str());
            for (std::string &name : campaign::counterNames(*t.condition))
                counters.push_back(std::move(name));
        }
        std::sort(counters.begin(), counters.end());
        counters.erase(std::unique(counters.begin(), counters.end()),
                       counters.end());
        // The sampling contract: the campaign's program must record
        // each of these for the conditions to ever fire.
        std::printf("\ntrigger counters\n");
        for (const std::string &name : counters)
            std::printf("  %s\n", name.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string file;
    bool list = false;
    bool describe = false;
    std::string list_dir = "bench/campaigns";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--list") {
            list = true;
        } else if (arg == "--describe") {
            describe = true;
        } else if (isValueFlag(arg)) {
            ++i; // value consumed by the support:: helpers
        } else if (isValueFlag(arg.substr(0, arg.find('=')))) {
            // --threads=N style; also handled by the support helpers
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "run_campaign: unknown flag %s\n",
                         arg.c_str());
            return 2;
        } else {
            file = arg;
        }
    }

    try {
        if (list)
            return listCampaigns(file.empty() ? list_dir : file);
        if (file.empty())
            return usage(stderr);
        if (describe)
            return describeCampaign(file);
        return campaign::runCampaign(campaign::CampaignSpec::load(file),
                                     argc, argv);
    } catch (const campaign::SpecError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
