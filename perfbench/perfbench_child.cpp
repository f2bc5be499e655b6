/**
 * @file
 * One run of one benchmark workload, in a process of its own so that
 * its peak RSS belongs to that run alone. perfbench/run.py starts it,
 * times it from outside and aggregates many runs; README.md in this
 * directory defines the workloads and every metric.
 *
 *   perfbench_child --workload paper|openloop|fork
 *                   --mode timed|reference|setup --root DIR --ref-dir DIR
 *                   --threads N --t0-ns NS --run-id K [--seed S]
 *                   [--trace-out FILE]
 *
 * `timed` runs the workload and checks every output; `reference` runs
 * it at one thread and stores what `timed` runs compare against (the
 * committed goldens stand in for it at the committed seeds); `setup`
 * stops where simulated time would first advance. `--t0-ns` is the
 * parent's CLOCK_MONOTONIC reading just before it started this
 * process, so setup time includes process start-up.
 *
 * The layers are measured from outside only: with `--trace-out` every
 * call this file makes into a layer's public functions is recorded as
 * a span (name, start, end, parent, run id), kept in memory, and
 * written at exit as a Chrome trace. Without it no span is recorded.
 *
 * The last line of stdout is one JSON object with the run's outcome;
 * campaign stdout is captured in memory and never reaches it.
 */

#include "campaign/programs/common.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/trigger.hpp"
#include "core/report.hpp"
#include "faas/sharded.hpp"
#include "obs/metrics.hpp"
#include "snap/format.hpp"
#include "snap/snapshotter.hpp"
#include "support/bench_timer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace eaao;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "perfbench_child: %s\n", why.c_str());
    std::exit(1);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.flush())
        die("cannot write " + path);
}

std::string
fmt(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

struct Args
{
    std::string workload;
    std::string mode = "timed";
    std::string root = ".";
    std::string ref_dir = ".";
    std::string trace_out;
    std::optional<std::uint64_t> seed;
    unsigned threads = 1;
    std::int64_t t0_ns = 0;
    int run_id = 0;

    bool reference() const { return mode == "reference"; }
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.t0_ns = nowNs();
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--mode")
            a.mode = value;
        else if (flag == "--root")
            a.root = value;
        else if (flag == "--ref-dir")
            a.ref_dir = value;
        else if (flag == "--trace-out")
            a.trace_out = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--threads")
            a.threads = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--t0-ns")
            a.t0_ns = std::stoll(value);
        else if (flag == "--run-id")
            a.run_id = std::stoi(value);
        else
            die("unknown flag " + flag);
    }
    if (a.mode != "timed" && a.mode != "reference" && a.mode != "setup")
        die("unknown mode " + a.mode);
    if (a.threads == 0)
        die("--threads must be positive");
    return a;
}

/**
 * Spans around the calls this file makes into the simulator. When
 * off, a span is just the call.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        std::string detail;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;
    };

    explicit Spans(bool on) : on_(on) {}

    bool on() const { return on_; }
    const std::vector<Span> &all() const { return spans_; }

    template <class Fn>
    decltype(auto) operator()(const char *name, Fn &&fn,
                              std::string detail = {})
    {
        if (!on_)
            return fn();
        const int idx = static_cast<int>(spans_.size());
        spans_.push_back({name, std::move(detail), nowNs(), 0,
                          open_.empty() ? -1 : open_.back()});
        open_.push_back(idx);
        struct Close
        {
            Spans &spans;
            int idx;
            ~Close()
            {
                spans.spans_[idx].end_ns = nowNs();
                spans.open_.pop_back();
            }
        } close{*this, idx};
        return fn();
    }

    /** Self time (s) per layer: a span's layer is its name's prefix. */
    std::map<std::string, double> selfTime() const
    {
        std::vector<std::int64_t> child_ns(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child_ns[s.parent] += s.end_ns - s.start_ns;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const std::string name = spans_[i].name;
            self[name.substr(0, name.find('.'))] += seconds(
                spans_[i].end_ns - spans_[i].start_ns - child_ns[i]);
        }
        return self;
    }

    /** Chrome trace JSON (complete events, microseconds from @p t0). */
    std::string chromeTrace(std::int64_t t0_ns, int run_id) const
    {
        std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const std::string name = s.name;
            out += i == 0 ? "\n" : ",\n";
            out += fmt("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                       "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, "
                       "\"tid\": 1, \"args\": {\"id\": %zu, \"parent\": %d, "
                       "\"run\": %d, \"detail\": \"%s\"}}",
                       s.name, name.substr(0, name.find('.')).c_str(),
                       static_cast<double>(s.start_ns - t0_ns) / 1e3,
                       static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                       run_id, i, s.parent, run_id, s.detail.c_str());
        }
        return out + "\n]}\n";
    }

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** What one run measured and checked; rendered as the result JSON. */
struct Outcome
{
    std::int64_t setup_end_ns = 0; //!< first call that advances sim time
    std::uint64_t checks = 0;
    std::uint64_t failed = 0;
    std::vector<double> units_s; //!< one sample per simulation unit
    double arrivals = 0;         //!< offered work items
    std::uint64_t events = 0;
    std::uint64_t events_cancelled = 0;
    std::uint64_t window_events = 0; //!< events run inside advanceWindow
    std::uint64_t windows = 0;
    std::uint64_t instances = 0;
    std::uint64_t image_bytes = 0;
    std::map<std::string, double> campaign_run_s;

    /** Marks the end of set-up; false when the run stops there. */
    bool setupDone(const Args &a)
    {
        setup_end_ns = nowNs();
        return a.mode != "setup";
    }

    void check(bool ok, const std::string &what)
    {
        ++checks;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench_child: check failed: %s\n",
                         what.c_str());
        }
    }
};

/** The expected text: the golden at the committed seed, else the
 *  one-thread reference run's output. */
std::string
expected(const Args &a, bool golden, const std::string &golden_path,
         const std::string &ref_name)
{
    return readFile(golden ? golden_path : a.ref_dir + "/" + ref_name);
}

std::string
describe(bool golden)
{
    return golden ? "matches the golden"
                  : "matches the one-thread reference run";
}

bool
eventsBalance(const faas::ShardedTotals &t)
{
    return t.events_scheduled ==
           t.events_processed + t.events_cancelled + t.events_pending;
}

// ---- paper -------------------------------------------------------

/** The campaigns with goldens that regenerate the paper's figures. */
const char *const kPaperCampaigns[] = {
    "abl_channel_robustness",     "abl_detection_evasion",
    "abl_pboot_tradeoff",         "abl_placement_knobs",
    "ext_victim_inflation",       "fig04_fingerprint_accuracy",
    "fig05_expiration_cdf",       "fig06_idle_termination",
    "fig07_exp2_same_service",    "fig08_exp3_accounts",
    "fig09_exp4_short_interval",  "fig10_exp4_episodes",
    "fig11_victim_coverage",      "fig12_cluster_size",
    "sec42_freq_methods",         "sec45_gen2_accuracy",
    "sec52_account_scaling",      "sec52_gen2_coverage",
    "sec52_naive_strategy",       "sec52_repeat_attack",
    "sec6_mitigations",           "tab_verification_cost",
};

/**
 * Shift every `<name>seed = <n>` entry of a campaign file by
 * @p offset. Stride keys and seeds given positionally in directives
 * stay as committed.
 */
std::string
reseed(const std::string &text, std::uint64_t offset)
{
    const auto trim = [](const std::string &s) {
        const auto b = s.find_first_not_of(" \t\r");
        const auto e = s.find_last_not_of(" \t\r");
        return b == std::string::npos ? std::string()
                                      : s.substr(b, e - b + 1);
    };
    std::istringstream in(text);
    std::string line;
    std::string out;
    while (std::getline(in, line)) {
        const auto eq = line.find('=');
        if (eq != std::string::npos && line.find('#') == std::string::npos) {
            const std::string key = trim(line.substr(0, eq));
            const std::string value = trim(line.substr(eq + 1));
            const bool digits =
                !value.empty() &&
                std::all_of(value.begin(), value.end(),
                            [](char c) { return c >= '0' && c <= '9'; });
            if (digits && key.size() >= 4 &&
                key.compare(key.size() - 4, 4, "seed") == 0)
                line = key + " = " +
                       std::to_string(std::stoull(value) + offset);
        }
        out += line + "\n";
    }
    return out;
}

/** Runs a callable with fd 1 redirected into memory. */
class StdoutCapture
{
  public:
    StdoutCapture() : fd_(memfd_create("perfbench-stdout", 0))
    {
        if (fd_ < 0)
            die("memfd_create failed");
    }
    ~StdoutCapture() { close(fd_); }

    StdoutCapture(const StdoutCapture &) = delete;
    StdoutCapture &operator=(const StdoutCapture &) = delete;

    template <class Fn>
    std::string operator()(Fn &&fn)
    {
        if (ftruncate(fd_, 0) != 0)
            die("ftruncate failed");
        std::fflush(stdout);
        const int saved = dup(1);
        if (saved < 0 || dup2(fd_, 1) < 0)
            die("cannot redirect stdout");
        fn();
        std::fflush(stdout);
        dup2(saved, 1);
        close(saved);
        std::string text(static_cast<std::size_t>(lseek(fd_, 0, SEEK_END)),
                         '\0');
        if (pread(fd_, text.data(), text.size(), 0) !=
            static_cast<ssize_t>(text.size()))
            die("cannot read captured stdout");
        lseek(fd_, 0, SEEK_SET);
        return text;
    }

  private:
    int fd_;
};

void
runPaper(const Args &a, Spans &spans, Outcome &out)
{
    // Offsets stay small so every shifted seed still fits its key.
    const std::uint64_t offset = a.seed.value_or(0) % (1ull << 24);
    const bool golden = offset == 0;
    if (a.reference() && golden)
        return;
    const std::string dir = a.root + "/bench/campaigns/";

    std::vector<campaign::CampaignSpec> specs;
    for (const char *name : kPaperCampaigns) {
        const std::string path = dir + name + ".scenario";
        std::string text = readFile(path);
        if (!golden)
            text = reseed(text, offset);
        specs.push_back(spans(
            "campaign.parse",
            [&] { return campaign::CampaignSpec::parse(text, path); },
            name));
    }
    if (!out.setupDone(a))
        return;

    std::string threads = std::to_string(a.threads);
    std::string prog = "perfbench_child";
    std::string flag = "--threads";
    char *argv[] = {prog.data(), flag.data(), threads.data(), nullptr};
    StdoutCapture capture;
    const std::int64_t suite_t0 = nowNs();
    for (const campaign::CampaignSpec &spec : specs) {
        const std::string &name = spec.name();
        const std::uint64_t events0 = support::totalEventsProcessed();
        const std::int64_t t0 = nowNs();
        int rc = -1;
        const std::string text = capture([&] {
            rc = spans("campaign.run",
                       [&] { return campaign::runCampaign(spec, 3, argv); },
                       name);
        });
        out.campaign_run_s[name] = seconds(nowNs() - t0);
        // Every platform a campaign builds is gone once it returns.
        out.events += support::totalEventsProcessed() - events0;
        if (a.reference()) {
            writeFile(a.ref_dir + "/" + name + ".txt", text);
            continue;
        }
        out.check(rc == 0 && text == expected(a, golden,
                                              dir + "expected/" + name +
                                                  ".txt",
                                              name + ".txt"),
                  "paper " + name + " stdout " + describe(golden));
    }
    // The whole suite is one unit: its campaigns differ in cost by
    // three orders of magnitude, so a median campaign says little.
    out.units_s.push_back(seconds(nowNs() - suite_t0));
    out.arrivals = static_cast<double>(specs.size());
}

// ---- openloop ----------------------------------------------------

double
numToken(const campaign::CampaignSpec &spec, const campaign::SpecLine &line,
         std::size_t index)
{
    if (index >= line.tokens.size())
        spec.fail(line.line_no, "missing token");
    char *end = nullptr;
    const double v = std::strtod(line.tokens[index].c_str(), &end);
    if (end == nullptr || *end != '\0')
        spec.fail(line.line_no, "bad number '" + line.tokens[index] + "'");
    return v;
}

faas::ShedPolicy
shedByName(const campaign::CampaignSpec &spec, const std::string &name)
{
    if (name == "reject")
        return faas::ShedPolicy::Reject;
    if (name == "shed_oldest")
        return faas::ShedPolicy::ShedOldest;
    if (name != "queue")
        spec.fail(0, "unknown shed policy '" + name + "'");
    return faas::ShedPolicy::Queue;
}

faas::ArrivalKind
familyByName(const campaign::CampaignSpec &spec,
             const campaign::SpecLine &line)
{
    const std::string &name = line.tokens.at(2);
    if (name == "poisson")
        return faas::ArrivalKind::Poisson;
    if (name == "diurnal")
        return faas::ArrivalKind::Diurnal;
    if (name == "pareto")
        return faas::ArrivalKind::Pareto;
    spec.fail(line.line_no, "unknown arrival family '" + name + "'");
}

faas::ContainerSize
sizeOf(std::uint32_t idx)
{
    switch (idx) {
    case 0:
        return faas::sizes::kPico;
    case 2:
        return faas::sizes::kMedium;
    case 3:
        return faas::sizes::kLarge;
    default:
        return faas::sizes::kSmall;
    }
}

/**
 * The loadgen_slo_sweep traffic as ShardOps, compiled from the
 * campaign file the way the loadgen program compiles it (the same
 * op order, so the same stable outcome).
 */
std::vector<faas::ShardOp>
openLoopOps(const campaign::CampaignSpec &spec,
            const std::vector<faas::ServiceId> &services,
            sim::SimTime &horizon)
{
    const std::uint32_t warm = spec.u32("workload", "warm_connections", 0);
    const std::uint32_t conc = spec.u32("workload", "concurrency", 0);
    std::vector<faas::ShardOp> ops;
    std::uint32_t step = 0;
    for (const faas::ServiceId svc : services) {
        if (conc > 0) {
            faas::ShardOp op;
            op.kind = faas::ShardOp::Kind::SetConcurrency;
            op.step = step++;
            op.service = svc;
            op.a = conc;
            ops.push_back(op);
        }
        if (warm > 0) {
            faas::ShardOp op;
            op.kind = faas::ShardOp::Kind::Connect;
            op.step = step++;
            op.service = svc;
            op.a = warm;
            ops.push_back(op);
        }
    }
    sim::SimTime last_end;
    for (const campaign::SpecLine *line :
         spec.directives("workload", "stream")) {
        const auto svc = static_cast<std::size_t>(numToken(spec, *line, 1));
        if (svc >= services.size())
            spec.fail(line->line_no, "stream references missing service");
        faas::ShardOp op;
        op.kind = faas::ShardOp::Kind::OpenLoop;
        op.step = step++;
        op.at = sim::SimTime() +
                sim::Duration::fromSecondsF(numToken(spec, *line, 8));
        op.service = services[svc];
        op.a = static_cast<std::uint32_t>(familyByName(spec, *line));
        op.rate = numToken(spec, *line, 3);
        op.burst = numToken(spec, *line, 4);
        op.dur = sim::Duration::fromSecondsF(numToken(spec, *line, 5) / 1e3);
        op.span = sim::Duration::fromSecondsF(numToken(spec, *line, 6));
        const double churn_s = numToken(spec, *line, 7);
        op.gap = churn_s > 0 ? sim::Duration::fromSecondsF(churn_s)
                             : sim::Duration();
        ops.push_back(op);
        last_end = std::max(last_end, op.at + op.span);
    }
    std::sort(ops.begin(), ops.end(),
              [](const faas::ShardOp &x, const faas::ShardOp &y) {
                  return x.at < y.at;
              });
    horizon = last_end +
              sim::Duration::seconds(spec.u32("workload", "drain_s", 120));
    return ops;
}

/** The admission, SLO, totals and trigger-log blocks of the report. */
std::vector<std::string>
openLoopReport(const faas::ShardedTotals &t, const faas::SloStats &slo,
               const campaign::TriggerEngine &triggers)
{
    core::TextTable adm;
    adm.header({"admitted", "served_warm", "queued", "dispatched",
                "rejected", "shed"});
    adm.row({std::to_string(slo.admitted), std::to_string(slo.served_warm),
             std::to_string(slo.queued), std::to_string(slo.dispatched),
             std::to_string(slo.rejected), std::to_string(slo.shed)});

    core::TextTable pct;
    pct.header({"series", "p50", "p90", "p95", "p99", "p99.9"});
    const auto row = [&](const char *name, const obs::Histogram &h) {
        std::vector<std::string> cells{name};
        for (const double q : {0.50, 0.90, 0.95, 0.99, 0.999})
            cells.push_back(fmt("%.6f", obs::histogramQuantile(h, q)));
        pct.row(std::move(cells));
    };
    row("latency", slo.latency_s);
    row("cold_wait", slo.cold_wait_s);

    std::string log = fmt("\ntrigger log (%zu firing%s)\n",
                          triggers.firings().size(),
                          triggers.firings().size() == 1 ? "" : "s");
    for (const campaign::TriggerFiring &f : triggers.firings())
        log += fmt("  t=%.0fs %s: %s\n", f.t_s, f.name.c_str(),
                   f.message.c_str());

    return {
        "\nadmission\n" + adm.str(),
        "\nslo percentiles (s)\n" + pct.str(),
        fmt("\nwindows %u  arrivals %llu  instances %llu  "
            "events_processed %llu\n",
            t.windows, static_cast<unsigned long long>(t.open_loop),
            static_cast<unsigned long long>(t.instances),
            static_cast<unsigned long long>(t.events_processed)) +
            fmt("final_spend_usd %.2f\n", t.final_spend_usd),
        log,
    };
}

void
runOpenLoop(const Args &a, Spans &spans, Outcome &out)
{
    const std::string path =
        a.root + "/bench/campaigns/loadgen_slo_sweep.scenario";
    const std::string text = readFile(path);
    const campaign::CampaignSpec spec = spans(
        "campaign.parse",
        [&] { return campaign::CampaignSpec::parse(text, path); });
    const std::uint64_t committed = spec.u64("platform", "seed");
    const bool golden = a.seed.value_or(committed) == committed;
    if (a.reference() && golden)
        return;

    faas::ShardedConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    if (const std::uint32_t hosts = spec.u32("platform", "hosts", 0))
        cfg.profile.host_count = hosts;
    cfg.seed = a.seed.value_or(committed);
    cfg.window = sim::Duration::seconds(spec.u32("workload", "window_s", 30));
    cfg.orchestrator.admission_depth = spec.u32("workload", "depth", 64);
    cfg.orchestrator.shed_policy =
        shedByName(spec, spec.str("workload", "shed", "queue"));
    // Only the thread count is set: the lane grouping stays at the
    // library default, so a change of default shows here.
    cfg.threads = a.threads;

    std::unique_ptr<faas::ShardedPlatform> platform;
    std::vector<faas::ServiceId> services;
    spans("faas.build", [&] {
        platform = std::make_unique<faas::ShardedPlatform>(cfg);
        std::vector<faas::AccountId> accounts;
        for (const campaign::SpecLine *line :
             spec.directives("tenants", "account")) {
            const double shard = numToken(spec, *line, 1);
            accounts.push_back(platform->createAccount(
                shard < 0 ? std::optional<std::uint32_t>{}
                          : std::optional<std::uint32_t>(
                                static_cast<std::uint32_t>(shard)),
                static_cast<std::uint32_t>(numToken(spec, *line, 2))));
        }
        for (const campaign::SpecLine *line :
             spec.directives("tenants", "service")) {
            const auto acct =
                static_cast<std::size_t>(numToken(spec, *line, 1));
            if (acct >= accounts.size())
                spec.fail(line->line_no, "service references missing account");
            services.push_back(platform->deployService(
                accounts[acct],
                numToken(spec, *line, 2) == 0 ? faas::ExecEnv::Gen1
                                              : faas::ExecEnv::Gen2,
                sizeOf(static_cast<std::uint32_t>(numToken(spec, *line, 3)))));
        }
    });
    sim::SimTime horizon;
    std::vector<faas::ShardOp> ops = openLoopOps(spec, services, horizon);
    campaign::TriggerEngine triggers;
    for (campaign::Trigger &trigger : spec.triggers())
        triggers.add(std::move(trigger));
    spans("faas.begin",
          [&] { platform->beginRun(std::move(ops), horizon); });
    if (!out.setupDone(a))
        return;

    // The window loop of the loadgen program, sampling the fleet-wide
    // counters for the triggers at every barrier.
    const std::int64_t t0 = nowNs();
    const double win_s = seconds(cfg.window.ns());
    while (platform->running()) {
        spans("faas.lanes", [&] { platform->advanceWindow(); });
        spans("faas.fold", [&] { platform->completeWindow(); });
        if (triggers.empty())
            continue;
        const faas::ShardedTotals t =
            spans("faas.totals", [&] { return platform->totals(); });
        const faas::SloStats slo =
            spans("faas.totals", [&] { return platform->sloTotals(); });
        spans("campaign.trigger", [&] {
            const double t_s = t.windows * win_s;
            const auto rec = [&](const char *name, double v) {
                triggers.record(name, t_s, v);
            };
            rec("arrivals.open_loop", static_cast<double>(t.open_loop));
            rec("orch.instances", static_cast<double>(t.instances));
            rec("slo.admitted", static_cast<double>(slo.admitted));
            rec("slo.served_warm", static_cast<double>(slo.served_warm));
            rec("slo.queued", static_cast<double>(slo.queued));
            rec("slo.dispatched", static_cast<double>(slo.dispatched));
            rec("slo.rejected", static_cast<double>(slo.rejected));
            rec("slo.shed", static_cast<double>(slo.shed));
            rec("slo.p50_s", obs::histogramQuantile(slo.latency_s, 0.50));
            rec("slo.p95_s", obs::histogramQuantile(slo.latency_s, 0.95));
            rec("slo.p99_s", obs::histogramQuantile(slo.latency_s, 0.99));
            rec("slo.cold_p99_s",
                obs::histogramQuantile(slo.cold_wait_s, 0.99));
            triggers.evaluateAt(t_s);
        });
    }
    out.units_s.push_back(seconds(nowNs() - t0));

    const faas::ShardedTotals t =
        spans("faas.totals", [&] { return platform->totals(); });
    const faas::SloStats slo =
        spans("faas.totals", [&] { return platform->sloTotals(); });
    out.arrivals = static_cast<double>(t.open_loop);
    out.events = t.events_processed;
    out.events_cancelled = t.events_cancelled;
    out.window_events = t.events_processed;
    out.windows = t.windows;
    out.instances = t.instances;

    static const char *const kBlocks[] = {"admission", "slo percentiles",
                                          "totals", "trigger log"};
    const std::vector<std::string> report = openLoopReport(t, slo, triggers);
    if (a.reference()) {
        std::string all;
        for (const std::string &block : report)
            all += block;
        writeFile(a.ref_dir + "/openloop.txt", all);
        return;
    }
    const std::string want =
        expected(a, golden,
                 a.root + "/bench/campaigns/expected/loadgen_slo_sweep.txt",
                 "openloop.txt");
    for (std::size_t i = 0; i < report.size(); ++i)
        out.check(want.find(report[i]) != std::string::npos,
                  std::string("openloop ") + kBlocks[i] + " block " +
                      describe(golden));
    out.check(eventsBalance(t), "openloop events scheduled = processed + "
                                "cancelled + pending");
}

// ---- fork --------------------------------------------------------

/** The storm shape of fork.scenario. */
struct ForkShape
{
    std::uint64_t requests = 0;
    std::uint32_t prime_rounds = 0;
    std::uint32_t prime_launch = 0;
    std::uint64_t prime_traffic = 0;
    std::uint32_t pool = 0;
    std::uint32_t concurrency = 0;
    std::uint32_t spend_every = 0;
    std::uint64_t forks = 0;
};

/**
 * One lane's script (the macro_campaign --sharded shape): prime a
 * service, pin a pool with multi-hour requests, then run the storm as
 * one RouteStorm op.
 */
void
laneScript(const ForkShape &shape, std::vector<faas::ShardOp> &ops,
           faas::ServiceId svc, std::uint64_t storm_requests)
{
    using Kind = faas::ShardOp::Kind;
    sim::SimTime t;
    std::uint32_t step = 0;
    const auto push = [&](Kind kind) -> faas::ShardOp & {
        faas::ShardOp op;
        op.kind = kind;
        op.at = t;
        op.step = step++;
        op.service = svc;
        ops.push_back(op);
        return ops.back();
    };
    const auto stormShape = [](faas::ShardOp &op, std::uint64_t n) {
        op.n = n;
        op.dur = sim::Duration::fromSecondsF(0.05);
        op.dur_step = sim::Duration::fromSecondsF(0.01);
        op.dur_mod = 7;
        op.gap_every = 16;
        op.gap = sim::Duration::fromSecondsF(0.02);
    };

    for (std::uint32_t round = 0; round < shape.prime_rounds; ++round) {
        push(Kind::Connect).a = shape.prime_launch;
        t = t + sim::Duration::minutes(1);
        push(Kind::Disconnect);
        if (shape.prime_traffic > 0)
            stormShape(push(Kind::RouteStorm), shape.prime_traffic);
        t = t + sim::Duration::minutes(4);
    }
    push(Kind::SetConcurrency).a = shape.concurrency;
    push(Kind::Connect).a = shape.pool;
    for (std::uint32_t p = 0; p < shape.pool; ++p) {
        faas::ShardOp &pin = push(Kind::Route);
        pin.sub = p;
        pin.dur = sim::Duration::hours(2);
    }
    faas::ShardOp &storm = push(Kind::RouteStorm);
    stormShape(storm, storm_requests);
    storm.spend_every = shape.spend_every;
}

/** Per-lane accounts and services, and the whole op script. */
std::vector<faas::ShardOp>
forkOps(faas::ShardedPlatform &platform, const ForkShape &shape,
        sim::SimTime &horizon)
{
    const std::uint32_t lanes = platform.laneCount();
    const std::uint64_t per_lane = shape.requests / lanes;
    std::vector<faas::ShardOp> ops;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const faas::AccountId acct = platform.createAccount(lane);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        laneScript(shape, ops, svc, per_lane);
        horizon = ops.back().at +
                  sim::Duration::fromSecondsF(0.02) *
                      static_cast<std::int64_t>(per_lane / 16) +
                  sim::Duration::minutes(10);
    }
    return ops;
}

/** Every ShardedTotals field, exactly (doubles round-trip). */
std::string
renderTotals(const faas::ShardedTotals &t)
{
    return fmt("routed=%llu open_loop=%llu instances=%llu spend=%.17g "
               "final_spend=%.17g scheduled=%llu processed=%llu "
               "cancelled=%llu pending=%llu windows=%u\n",
               static_cast<unsigned long long>(t.routed),
               static_cast<unsigned long long>(t.open_loop),
               static_cast<unsigned long long>(t.instances),
               t.spend_checksum, t.final_spend_usd,
               static_cast<unsigned long long>(t.events_scheduled),
               static_cast<unsigned long long>(t.events_processed),
               static_cast<unsigned long long>(t.events_cancelled),
               static_cast<unsigned long long>(t.events_pending),
               t.windows);
}

void
runFork(const Args &a, Spans &spans, Outcome &out)
{
    const std::string path = a.root + "/perfbench/fork.scenario";
    const std::string text = readFile(path);
    const campaign::CampaignSpec spec = spans(
        "campaign.parse",
        [&] { return campaign::CampaignSpec::parse(text, path); });
    ForkShape shape;
    shape.requests = spec.u64("workload", "requests");
    shape.prime_rounds = spec.u32("workload", "prime_rounds");
    shape.prime_launch = spec.u32("workload", "prime_launch");
    shape.prime_traffic = spec.u64("workload", "prime_traffic");
    shape.pool = spec.u32("workload", "pool");
    shape.concurrency = spec.u32("workload", "concurrency");
    shape.spend_every = spec.u32("workload", "spend_every");
    shape.forks = spec.u64("workload", "forks");

    faas::ShardedConfig cfg;
    cfg.profile = campaign::profileOf(spec, "platform", "profile");
    cfg.profile.host_count = spec.u32("platform", "hosts");
    cfg.seed = a.seed.value_or(spec.u64("platform", "seed"));
    cfg.threads = a.threads;

    sim::SimTime horizon;
    if (a.reference()) {
        // The straight run every fork must reproduce.
        faas::ShardedPlatform platform(cfg);
        std::vector<faas::ShardOp> ops = forkOps(platform, shape, horizon);
        platform.run(std::move(ops), horizon);
        writeFile(a.ref_dir + "/fork.txt", renderTotals(platform.totals()));
        return;
    }

    // Prime once and capture at the last priming barrier (pre-fold),
    // so a fork re-executes only the storm.
    std::vector<std::uint8_t> image;
    {
        std::unique_ptr<faas::ShardedPlatform> prime;
        std::vector<faas::ShardOp> ops;
        spans("faas.build", [&] {
            prime = std::make_unique<faas::ShardedPlatform>(cfg);
            ops = forkOps(*prime, shape, horizon);
        });
        const std::int64_t prime_ns = sim::Duration::minutes(5).ns() *
                                      static_cast<std::int64_t>(
                                          shape.prime_rounds);
        const std::int64_t capture_at =
            std::max<std::int64_t>(prime_ns / cfg.window.ns() - 1, 0);
        spans("faas.begin", [&] { prime->beginRun(std::move(ops), horizon); });
        for (std::int64_t w = 0; prime->running(); ++w) {
            spans("faas.lanes", [&] { prime->advanceWindow(); });
            if (w >= capture_at) {
                image = spans("snap.capture", [&] {
                    return snap::Snapshotter::capture(*prime);
                });
                break;
            }
            spans("faas.fold", [&] { prime->completeWindow(); });
        }
        if (image.empty())
            die("fork: the run ended before the capture barrier");
        out.window_events =
            spans("faas.totals", [&] { return prime->totals(); })
                .events_processed;
    }
    out.image_bytes = image.size();

    std::unique_ptr<faas::ShardedPlatform> platform;
    spans("faas.build",
          [&] { platform = std::make_unique<faas::ShardedPlatform>(cfg); });
    snap::SnapshotReader reader;
    std::string error;
    if (!spans("snap.parse",
               [&] { return reader.parse(image, error, a.threads); }))
        die("fork: " + error);
    if (!out.setupDone(a))
        return;

    const std::string want = readFile(a.ref_dir + "/fork.txt");
    for (std::uint64_t i = 0; i < shape.forks; ++i) {
        std::int64_t fork_ns = 0;
        faas::ShardedTotals before;
        faas::ShardedTotals after;
        spans("bench.fork", [&] {
            std::int64_t t0 = nowNs();
            if (!spans("snap.restore", [&] {
                    return snap::Snapshotter::restore(reader, *platform,
                                                      error);
                }))
                die("fork: " + error);
            fork_ns += nowNs() - t0;
            before = spans("faas.totals", [&] { return platform->totals(); });
            t0 = nowNs();
            spans("faas.resume", [&] { platform->resumeRun(); });
            fork_ns += nowNs() - t0;
            after = spans("faas.totals", [&] { return platform->totals(); });
        });
        out.units_s.push_back(seconds(fork_ns));
        out.events += after.events_processed - before.events_processed;
        out.events_cancelled +=
            after.events_cancelled - before.events_cancelled;
        out.arrivals += static_cast<double>(after.routed - before.routed);
        out.windows = after.windows;
        out.instances = after.instances;
        out.check(renderTotals(after) == want,
                  fmt("fork %llu totals equal the straight run's",
                      static_cast<unsigned long long>(i)));
        out.check(eventsBalance(after),
                  fmt("fork %llu events scheduled = processed + cancelled "
                      "+ pending",
                      static_cast<unsigned long long>(i)));
    }
}

// ---- result ------------------------------------------------------

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += fmt(i == 0 ? "%.9g" : ", %.9g", values[i]);
    return out + "]";
}

std::string
jsonMap(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[key, value] : values)
        out += fmt("%s\"%s\": %.9g", out.size() == 1 ? "" : ", ",
                   key.c_str(), value);
    return out + "}";
}

/** Span durations by name, plus faas.window = lanes + fold per window. */
std::string
spanSamples(const Spans &spans)
{
    std::map<std::string, std::vector<double>> by_name;
    for (const Spans::Span &s : spans.all())
        by_name[s.name].push_back(seconds(s.end_ns - s.start_ns));
    const std::vector<double> &lanes = by_name["faas.lanes"];
    const std::vector<double> &fold = by_name["faas.fold"];
    std::vector<double> window;
    for (std::size_t i = 0; i < std::min(lanes.size(), fold.size()); ++i)
        window.push_back(lanes[i] + fold[i]);
    by_name["faas.window"] = window;

    std::string out = "{";
    for (const auto &[name, values] : by_name)
        out += (out.size() == 1 ? "\"" : ", \"") + name +
               "\": " + jsonList(values);
    return out + "}";
}

std::string
resultJson(const Args &a, const Spans &spans, const Outcome &out)
{
    std::string json = "{";
    json += fmt("\"setup_s\": %.9f", seconds(out.setup_end_ns - a.t0_ns));
    json += fmt(", \"checks\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(out.checks),
                static_cast<unsigned long long>(out.failed));
    json += fmt(", \"arrivals\": %.17g", out.arrivals);
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"events", out.events},
        {"events_cancelled", out.events_cancelled},
        {"window_events", out.window_events},
        {"windows", out.windows},
        {"instances", out.instances},
        {"image_bytes", out.image_bytes},
    };
    for (const auto &[key, value] : counts)
        json += fmt(", \"%s\": %llu", key,
                    static_cast<unsigned long long>(value));
    json += ", \"units_s\": " + jsonList(out.units_s);
    json += ", \"campaign_run_s\": " + jsonMap(out.campaign_run_s);
    if (spans.on()) {
        json += fmt(", \"span_count\": %zu", spans.all().size());
        json += ", \"spans\": " + spanSamples(spans);
        json += ", \"self_s\": " + jsonMap(spans.selfTime());
    }
    return json + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    Spans spans(!a.trace_out.empty());
    Outcome out;
    try {
        spans("bench.run", [&] {
            if (a.workload == "paper")
                runPaper(a, spans, out);
            else if (a.workload == "openloop")
                runOpenLoop(a, spans, out);
            else if (a.workload == "fork")
                runFork(a, spans, out);
            else
                die("unknown workload '" + a.workload + "'");
        }, a.workload);
    } catch (const std::exception &e) {
        die(e.what());
    }
    if (spans.on())
        writeFile(a.trace_out, spans.chromeTrace(a.t0_ns, a.run_id));
    std::printf("%s\n", resultJson(a, spans, out).c_str());
    return 0;
}
