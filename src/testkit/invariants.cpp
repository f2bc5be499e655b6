/**
 * @file
 * Implementation of the invariant oracles.
 */

#include "testkit/invariants.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/strategy.hpp"
#include "core/verify.hpp"
#include "exp/trial_runner.hpp"
#include "obs/export.hpp"
#include "sim/event_queue.hpp"
#include "stats/clustering.hpp"
#include "testkit/runner.hpp"

namespace eaao::testkit {

namespace {

/** First line where @p a and @p b diverge, quoted for the report. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a);
    std::istringstream sb(b);
    std::string la;
    std::string lb;
    std::size_t line = 0;
    while (true) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "identical"; // only sizes differed upstream
        if (!ga || !gb || la != lb) {
            std::ostringstream out;
            out << "line " << line << ": '" << (ga ? la : "<eof>") << "' vs '"
                << (gb ? lb : "<eof>") << "'";
            return out.str();
        }
    }
}

void
checkReference(const Scenario &sc, const std::string &indexed,
               std::vector<Violation> &out)
{
    RunOptions ro;
    ro.reference_scan = true;
    const std::string reference = runScenario(sc, ro).render();
    if (reference != indexed)
        out.push_back({"reference", firstDiff(indexed, reference)});
}

void
checkObs(const Scenario &sc, const std::string &plain,
         std::vector<Violation> &out)
{
    obs::TrialObs slot;
    RunOptions ro;
    ro.obs = slot.observer();
    const std::string observed = runScenario(sc, ro).render();
    if (observed != plain)
        out.push_back({"obs", firstDiff(plain, observed)});
}

void
checkThreads(const Scenario &sc, const InvariantOptions &opts,
             std::vector<Violation> &out)
{
    const auto body = [&sc](exp::TrialContext &ctx) -> std::string {
        RunOptions ro;
        ro.obs = ctx.obs;
        ro.seed_override = ctx.trialSeed();
        return runScenario(sc, ro).render();
    };

    const auto campaign = [&](unsigned threads, obs::TrialSet &set) {
        return exp::runTrials(opts.thread_trials, sc.seed, body, threads,
                              &set);
    };

    obs::TrialSet set1(true);
    obs::TrialSet setN(true);
    const std::vector<std::string> logs1 = campaign(1, set1);
    const std::vector<std::string> logsN = campaign(opts.threads, setN);

    for (std::size_t i = 0; i < logs1.size(); ++i) {
        if (logs1[i] != logsN[i]) {
            std::ostringstream detail;
            detail << "trial " << i << " log: "
                   << firstDiff(logs1[i], logsN[i]);
            out.push_back({"threads", detail.str()});
            return;
        }
    }

    const auto mergedMetrics = [](obs::TrialSet &set) {
        std::vector<obs::MetricsRegistry> parts;
        parts.reserve(set.slots().size());
        for (obs::TrialObs &slot : set.slots())
            parts.push_back(slot.metrics);
        return obs::mergeRegistries(parts).toJson();
    };
    const std::string m1 = mergedMetrics(set1);
    const std::string mN = mergedMetrics(setN);
    if (m1 != mN) {
        out.push_back({"threads", "merged metrics: " + firstDiff(m1, mN)});
        return;
    }

    const auto traceJson = [](const obs::TrialSet &set) {
        std::vector<const obs::TraceSink *> sinks;
        sinks.reserve(set.slots().size());
        for (const obs::TrialObs &slot : set.slots())
            sinks.push_back(&slot.trace);
        return obs::toChromeTraceJson(sinks);
    };
    const std::string t1 = traceJson(set1);
    const std::string tN = traceJson(setN);
    if (t1 != tN)
        out.push_back({"threads", "chrome trace: " + firstDiff(t1, tN)});
}

void
checkEvents(const ScenarioLog &log, std::vector<Violation> &out)
{
    if (log.events_scheduled !=
        log.events_processed + log.events_cancelled + log.events_pending) {
        std::ostringstream detail;
        detail << "conservation: scheduled=" << log.events_scheduled
               << " != processed=" << log.events_processed
               << " + cancelled=" << log.events_cancelled
               << " + pending=" << log.events_pending;
        out.push_back({"events", detail.str()});
    }

    // Generation-tag probes on a standalone queue: stale handles must
    // be refused in every slot-reuse order.
    sim::EventQueue eq;
    int fired_a = 0;
    int fired_b = 0;
    const sim::EventId a =
        eq.scheduleAfter(sim::Duration::millis(1), [&] { ++fired_a; });
    const sim::EventId b =
        eq.scheduleAfter(sim::Duration::millis(2), [&] { ++fired_b; });
    if (!eq.cancel(a))
        out.push_back({"events", "cancel of a pending event refused"});
    if (eq.cancel(a))
        out.push_back({"events", "double-cancel accepted"});
    // a's slot is free again; c reuses it with a bumped generation.
    int fired_c = 0;
    const sim::EventId c =
        eq.scheduleAfter(sim::Duration::millis(3), [&] { ++fired_c; });
    if (eq.cancel(a))
        out.push_back({"events", "stale handle accepted after slot reuse"});
    eq.advance(sim::Duration::millis(10));
    if (fired_a != 0)
        out.push_back({"events", "cancelled event fired"});
    if (fired_b != 1 || fired_c != 1)
        out.push_back({"events", "live event lost after cancellations"});
    if (eq.cancel(b))
        out.push_back({"events", "cancel-after-fire accepted"});
    if (eq.cancel(c))
        out.push_back({"events", "cancel-after-fire accepted (reused slot)"});
    if (eq.pending() != 0)
        out.push_back({"events", "probe queue did not drain"});
}

/** Merged metrics JSON of a TrialSet, slot order (shared helper). */
std::string
mergedSetMetrics(const obs::TrialSet &set)
{
    std::vector<obs::MetricsRegistry> parts;
    parts.reserve(set.slots().size());
    for (const obs::TrialObs &slot : set.slots())
        parts.push_back(slot.metrics);
    return obs::mergeRegistries(parts).toJson();
}

/** Chrome trace JSON of a TrialSet, slot order (shared helper). */
std::string
setTraceJson(const obs::TrialSet &set)
{
    std::vector<const obs::TraceSink *> sinks;
    sinks.reserve(set.slots().size());
    for (const obs::TrialObs &slot : set.slots())
        sinks.push_back(&slot.trace);
    return obs::toChromeTraceJson(sinks);
}

/** The three byte-compared renders of one sharded execution. */
struct Renders
{
    std::string log;
    std::string metrics; //!< merged metrics JSON
    std::string trace;   //!< Chrome trace JSON
};

Renders
rendersOf(std::string log, const obs::TrialSet &set)
{
    return {std::move(log), mergedSetMetrics(set), setTraceJson(set)};
}

/** "<what>: <first diff>" for the first render of @p got that differs
 *  from @p want (log, then metrics, then trace); empty when equal. */
std::string
renderDiff(const Renders &want, const Renders &got)
{
    if (got.log != want.log)
        return "log: " + firstDiff(want.log, got.log);
    if (got.metrics != want.metrics)
        return "merged metrics: " + firstDiff(want.metrics, got.metrics);
    if (got.trace != want.trace)
        return "chrome trace: " + firstDiff(want.trace, got.trace);
    return {};
}

/** Lane count from a sharded log's `sharded lanes=N ...` header. */
unsigned
laneCountOf(const std::string &log)
{
    unsigned lanes = 0;
    std::sscanf(log.c_str(), "sharded lanes=%u", &lanes);
    return lanes;
}

/**
 * Lane-grouping byte-equality: one sharded execution per grouping —
 * one group, two, and one group per lane — all compared (log, merged
 * metrics, Chrome trace) against the one-group baseline. Lane count
 * is a fixed platform property, so every arm runs the same lanes;
 * only the grouping onto workers differs, and nothing may depend on
 * it.
 */
void
checkShards(const Scenario &sc, std::vector<Violation> &out)
{
    Renders base;
    for (std::size_t i = 0; i < 3; ++i) {
        obs::TrialSet set(true);
        ShardedRunOptions ro;
        ro.threads = i == 2 ? laneCountOf(base.log) : unsigned(i + 1);
        ro.obs = &set;
        Renders got = rendersOf(runScenarioSharded(sc, ro), set);
        if (i == 0) {
            base = std::move(got);
            continue;
        }
        const std::string diff = renderDiff(base, got);
        if (!diff.empty()) {
            out.push_back(
                {"shards", "threads=" + std::to_string(ro.threads) + " " +
                               diff});
            return;
        }
    }
}

/**
 * Checkpoint/restore byte-equality: run the sharded scenario straight
 * through on one thread for the baseline, then re-run it capturing a
 * snapshot at a window barrier (the first barrier, and a mid-run one
 * when the run is long enough) and finish each captured run from the
 * snapshot — once on one thread and once on opts.threads, since
 * lane grouping is excluded from the snapshot's config
 * fingerprint. Log, merged metrics JSON, and Chrome trace JSON must
 * all match the baseline byte-for-byte. Catches planted fault 5 (the
 * restore path drops one lane's vcpus delta column).
 */
void
checkSnapshot(const Scenario &sc, const InvariantOptions &opts,
              std::vector<Violation> &out)
{
    obs::TrialSet base_set(true);
    ShardedRunOptions base_ro;
    base_ro.obs = &base_set;
    const Renders base = rendersOf(runScenarioSharded(sc, base_ro), base_set);

    unsigned lanes = 0, windows = 0;
    long long window_ns = 0;
    if (std::sscanf(base.log.c_str(),
                    "sharded lanes=%u window_ns=%lld windows=%u", &lanes,
                    &window_ns, &windows) != 3) {
        out.push_back({"snapshot", "cannot parse window count from the "
                                   "sharded log header"});
        return;
    }

    std::vector<std::uint32_t> capture_points = {0};
    if (windows / 2 != 0)
        capture_points.push_back(windows / 2);

    for (const std::uint32_t at : capture_points) {
        std::vector<std::uint8_t> image;
        obs::TrialSet cap_set(true);
        ShardedRunOptions cap_ro;
        cap_ro.obs = &cap_set;
        cap_ro.snapshot_at_window = at;
        cap_ro.snapshot_out = &image;
        const std::string cap_log = runScenarioSharded(sc, cap_ro);
        if (cap_log != base.log) {
            out.push_back({"snapshot",
                           "capture stepping perturbed the run: " +
                               firstDiff(base.log, cap_log)});
            return;
        }
        if (image.empty()) {
            std::ostringstream detail;
            detail << "no snapshot captured at window " << at << " (of "
                   << windows << ")";
            out.push_back({"snapshot", detail.str()});
            return;
        }

        for (const unsigned threads : {1u, opts.threads}) {
            obs::TrialSet res_set(true);
            ShardedRunOptions res_ro;
            res_ro.threads = threads;
            res_ro.obs = &res_set;
            std::string log, error;
            std::ostringstream detail;
            detail << "window " << at;
            if (!resumeScenarioSharded(sc, res_ro, image, log, error)) {
                detail << " restore failed: " << error;
                out.push_back({"snapshot", detail.str()});
                return;
            }
            const std::string diff =
                renderDiff(base, rendersOf(std::move(log), res_set));
            if (!diff.empty()) {
                detail << " restore (threads=" << threads << ") " << diff;
                out.push_back({"snapshot", detail.str()});
                return;
            }
        }
    }
}

/** Platform config oracle E uses: scenario shape, fresh tenant. */
faas::PlatformConfig
verifyPlatformConfig(const Scenario &sc)
{
    faas::PlatformConfig cfg;
    if (sc.profile == 1)
        cfg.profile = faas::DataCenterProfile::usCentral1();
    else if (sc.profile == 2)
        cfg.profile = faas::DataCenterProfile::usWest1();
    if (sc.host_count != 0)
        cfg.profile.host_count = sc.host_count;
    cfg.orchestrator.isolate_accounts = sc.isolate_accounts;
    cfg.seed = sc.seed;
    return cfg;
}

void
checkVerify(const Scenario &sc, std::vector<Violation> &out)
{
    constexpr std::uint32_t kInstances = 64;

    const auto launchLabels =
        [&](const std::vector<std::size_t> &order) -> std::vector<std::uint64_t> {
        faas::Platform platform(verifyPlatformConfig(sc));
        const faas::AccountId acct = platform.createAccount({}, 1000);
        const faas::ServiceId svc =
            platform.deployService(acct, faas::ExecEnv::Gen1);
        core::LaunchOptions lo;
        lo.instances = kInstances;
        lo.hold = sim::Duration::seconds(5);
        lo.disconnect_after = false;
        const core::LaunchObservation obs =
            core::launchAndObserve(platform, svc, lo);

        std::vector<faas::InstanceId> ids;
        std::vector<std::uint64_t> fp;
        std::vector<std::uint64_t> cls;
        ids.reserve(order.size());
        for (const std::size_t i : order) {
            ids.push_back(obs.ids[i]);
            fp.push_back(obs.fp_keys[i]);
            cls.push_back(obs.class_keys[i]);
        }
        channel::RngChannel chan(platform);
        const core::VerifyResult res =
            core::verifyScalable(platform, chan, ids, fp, cls);

        // Undo the permutation so labels are comparable slot-by-slot.
        std::vector<std::uint64_t> labels(order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            labels[order[i]] = res.cluster_of[i];
        return labels;
    };

    std::vector<std::size_t> identity(kInstances);
    for (std::size_t i = 0; i < identity.size(); ++i)
        identity[i] = i;
    std::vector<std::size_t> permuted = identity;
    sim::Rng perm_rng = sim::Rng(sc.seed).fork(0xE5);
    for (std::size_t i = permuted.size(); i > 1; --i)
        std::swap(permuted[i - 1], permuted[perm_rng.uniformInt(i)]);

    const std::vector<std::uint64_t> base = launchLabels(identity);
    const std::vector<std::uint64_t> shuffled = launchLabels(permuted);

    const stats::PairConfusion cmp = stats::comparePairs(shuffled, base);
    if (cmp.fp != 0 || cmp.fn != 0) {
        std::ostringstream detail;
        detail << "clustering changed under party permutation: fp=" << cmp.fp
               << " fn=" << cmp.fn << " (of "
               << (cmp.tp + cmp.fp + cmp.tn + cmp.fn) << " pairs)";
        out.push_back({"verify", detail.str()});
    }
}

} // namespace

std::vector<Violation>
checkInvariants(const Scenario &scenario, const InvariantOptions &opts)
{
    std::vector<Violation> out;

    const ScenarioLog indexed = runScenario(scenario, {});
    const std::string indexed_log = indexed.render();

    if (opts.check_events)
        checkEvents(indexed, out);
    if (opts.check_reference)
        checkReference(scenario, indexed_log, out);
    if (opts.check_obs)
        checkObs(scenario, indexed_log, out);
    if (opts.check_threads)
        checkThreads(scenario, opts, out);
    if (opts.check_shards)
        checkShards(scenario, out);
    if (opts.check_snapshot)
        checkSnapshot(scenario, opts, out);
    if (opts.check_timetravel && scenario.has_timetravel) {
        const std::vector<Violation> tt = checkTimeTravelForks(scenario, opts);
        out.insert(out.end(), tt.begin(), tt.end());
    }
    if (opts.check_verify)
        checkVerify(scenario, out);
    return out;
}

bool
primeTimeTravel(const Scenario &scenario,
                const InvariantOptions & /*opts*/, TimeTravelPrime &out,
                std::string &error)
{
    // The prime is the one-group canonical universe: its barrier renders
    // are what every prefix arm must reproduce, whatever its grouping.
    obs::TrialSet set(true);
    ShardedRunOptions ro;
    ro.obs = &set;
    if (!runScenarioToBarrier(scenario, ro, out.prime, error))
        return false;
    out.metrics = mergedSetMetrics(set);
    out.trace = setTraceJson(set);
    return true;
}

std::vector<Violation>
checkTimeTravelForks(const Scenario &scenario, const InvariantOptions &opts,
                     const TimeTravelPrime *primed)
{
    std::vector<Violation> out;

    TimeTravelPrime local;
    if (primed == nullptr) {
        std::string error;
        if (!primeTimeTravel(scenario, opts, local, error)) {
            out.push_back({"prefix", "prime failed: " + error});
            return out;
        }
        primed = &local;
    }

    // Prefix-consistency: restoring the image *without resuming* must
    // reproduce the capture platform's barrier log, merged metrics
    // JSON, and Chrome trace JSON at one group, two, and one per lane.
    const Renders barrier{primed->prime.prefix_log, primed->metrics,
                          primed->trace};
    const unsigned lanes = laneCountOf(barrier.log);
    for (const unsigned threads : {1u, 2u, lanes}) {
        obs::TrialSet set(true);
        ShardedRunOptions ro;
        ro.threads = threads;
        ro.obs = &set;
        std::string log;
        std::string error;
        const std::string arm = "threads=" + std::to_string(threads);
        if (!restoreScenarioBarrier(scenario, ro, primed->prime, log,
                                    error)) {
            out.push_back({"prefix", "restore (" + arm + ") failed: " +
                                         error});
            return out;
        }
        const std::string diff =
            renderDiff(barrier, rendersOf(std::move(log), set));
        if (!diff.empty()) {
            out.push_back({"prefix", arm + " " + diff});
            return out;
        }
    }

    // The differential baseline: a straight run of the composed
    // scenario, which never goes near the fork path (compileScript
    // places the suffix at the same fork wall the fork arm uses, so
    // both arms execute the same op list from the same virtual times).
    obs::TrialSet straight_set(true);
    ShardedRunOptions straight_ro;
    straight_ro.obs = &straight_set;
    const Renders straight =
        rendersOf(runScenarioSharded(scenario, straight_ro), straight_set);

    // Fork arms: one group twice — fork-determinism — plus one group
    // per lane; every arm must equal the straight run byte for byte.
    // This is the only oracle that executes ShardedPlatform::appendOps,
    // so it alone can catch planted fault 6.
    const unsigned fork_threads[] = {1, 1, lanes};
    std::string first_fork_log;
    for (std::size_t i = 0; i < std::size(fork_threads); ++i) {
        obs::TrialSet set(true);
        ShardedRunOptions ro;
        ro.threads = fork_threads[i];
        ro.obs = &set;
        std::string log;
        std::string error;
        const std::string arm = "threads=" + std::to_string(ro.threads);
        if (!runScenarioForked(scenario, ro, primed->prime, log, error)) {
            out.push_back({"fork", "fork (" + arm + ") failed: " + error});
            return out;
        }
        if (i == 0) {
            first_fork_log = log;
        } else if (i == 1 && log != first_fork_log) {
            out.push_back(
                {"fork", "fork-determinism: the same suffix replayed "
                         "twice from the image diverged: " +
                             firstDiff(first_fork_log, log)});
            return out;
        }
        const std::string diff =
            renderDiff(straight, rendersOf(std::move(log), set));
        if (!diff.empty()) {
            out.push_back({"fork", arm + " forked vs straight " + diff});
            return out;
        }
    }
    return out;
}

} // namespace eaao::testkit
