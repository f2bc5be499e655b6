/**
 * @file
 * Implementation of launching strategies and campaigns.
 */

#include "core/strategy.hpp"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/freq_estimator.hpp"
#include "hw/cpu_sku.hpp"
#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "support/logging.hpp"

namespace eaao::core {

namespace {

/** FNV-1a hash of a string (for CPU-model class keys). */
std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

#if EAAO_OBS_ENABLED
/** Record one finished attack campaign (span + counter).
 *  @p kind must be a string literal ("optimized" / "naive"). */
void
recordCampaign(faas::Platform &platform, const char *kind,
               sim::SimTime start, const CampaignResult &result)
{
    const obs::Observer observer = platform.obs();
    if (observer.metrics != nullptr)
        observer.metrics->counter("strategy.campaigns")->add();
    if (observer.trace != nullptr) {
        observer.trace->complete(
            "strategy.campaign", "strategy", start, platform.now(),
            {obs::TraceArg::str("kind", kind),
             obs::TraceArg::u64("services", result.services.size()),
             obs::TraceArg::u64("apparent_hosts",
                                result.apparent_hosts.size()),
             obs::TraceArg::u64("final_instances",
                                result.final_instances.size()),
             obs::TraceArg::f64("cost_usd", result.cost_usd)});
    }
}
#endif

} // namespace

std::set<std::uint64_t>
LaunchObservation::apparentHosts() const
{
    return {fp_keys.begin(), fp_keys.end()};
}

LaunchObservation
launchAndObserve(faas::Platform &platform, faas::ServiceId service,
                 const LaunchOptions &opts)
{
    EAAO_OBS_ONLY(const sim::SimTime obs_start = platform.now();)
    LaunchObservation obs;
    obs.ids = platform.connect(service, opts.instances);

    const faas::ExecEnv env =
        platform.orchestrator().service(service).env;
    obs.fp_keys.reserve(obs.ids.size());
    obs.class_keys.reserve(obs.ids.size());
    for (const faas::InstanceId id : obs.ids) {
        faas::SandboxView sandbox = platform.sandbox(id);
        if (env == faas::ExecEnv::Gen1) {
            // Method 1 (reported frequency) when the model string has
            // a label; fall back to the measured method when cpuid is
            // masked (Section 6 defense).
            const double reported =
                hw::SkuCatalog::labeledFrequencyHz(
                    sandbox.cpuModelName());
            const Gen1Reading reading = readGen1WithFrequency(
                sandbox, reported > 0.0
                             ? reported
                             : measuredFrequencyHz(sandbox).mean_hz);
            const Gen1Fingerprint fp =
                quantizeGen1(reading, opts.p_boot_s);
            obs.readings.push_back(reading);
            obs.fp_keys.push_back(fingerprintKey(fp));
            obs.class_keys.push_back(hashString(reading.cpu_model));
        } else {
            const Gen2Fingerprint fp = readGen2(sandbox);
            obs.fp_keys.push_back(fingerprintKey(fp));
            // Gen 2 fingerprints have no false negatives, so the
            // fingerprint itself is a safe parallel class.
            obs.class_keys.push_back(fingerprintKey(fp));
        }
    }

    platform.advance(opts.hold);
    if (opts.disconnect_after)
        platform.disconnectAll(service);

#if EAAO_OBS_ENABLED
    const obs::Observer observer = platform.obs();
    if (observer.metrics != nullptr)
        observer.metrics->counter("strategy.launches")->add();
    if (observer.trace != nullptr) {
        // apparentHosts() builds a set; compute only while tracing.
        observer.trace->complete(
            "strategy.launch", "strategy", obs_start, platform.now(),
            {obs::TraceArg::u64("service", service),
             obs::TraceArg::u64("instances", obs.ids.size()),
             obs::TraceArg::u64("apparent_hosts",
                                obs.apparentHosts().size())});
    }
#endif
    return obs;
}

std::vector<LaunchObservation>
primeService(faas::Platform &platform, faas::ServiceId service,
             const PrimeOptions &opts)
{
    EAAO_ASSERT(opts.launch.hold <= opts.interval,
                "hold exceeds launch interval");
    std::vector<LaunchObservation> all;
    all.reserve(opts.launches);
    for (std::uint32_t l = 0; l < opts.launches; ++l) {
        const bool last = l + 1 == opts.launches;
        LaunchOptions launch = opts.launch;
        launch.disconnect_after = !(last && opts.keep_last_connected);
        all.push_back(launchAndObserve(platform, service, launch));
        if (!last)
            platform.advance(opts.interval - opts.launch.hold);
    }
    return all;
}

CampaignResult
runOptimizedCampaign(faas::Platform &platform, faas::AccountId attacker,
                     const CampaignConfig &cfg)
{
    EAAO_OBS_ONLY(const sim::SimTime obs_start = platform.now();)
    const double spend_before = platform.accountSpendUsd(attacker);

    CampaignResult result;
    for (std::uint32_t s = 0; s < cfg.services; ++s) {
        result.services.push_back(
            platform.deployService(attacker, cfg.env, cfg.size));
    }

    // Interleaved rounds: every service launches once per round, so
    // each service sees the configured interval between its launches.
    const sim::Duration hold = cfg.prime.launch.hold;
    const sim::Duration round_budget = cfg.prime.interval;
    EAAO_ASSERT(hold * static_cast<std::int64_t>(cfg.services) <=
                    round_budget,
                "round does not fit the launch interval");

    for (std::uint32_t round = 0; round < cfg.prime.launches; ++round) {
        const bool last = round + 1 == cfg.prime.launches;
        for (const faas::ServiceId svc : result.services) {
            LaunchOptions launch = cfg.prime.launch;
            launch.disconnect_after = !(last &&
                                        cfg.prime.keep_last_connected);
            LaunchObservation obs =
                launchAndObserve(platform, svc, launch);
            for (const auto key : obs.fp_keys)
                result.apparent_hosts.insert(key);
            if (last && cfg.prime.keep_last_connected) {
                result.final_instances.insert(result.final_instances.end(),
                                              obs.ids.begin(),
                                              obs.ids.end());
                result.final_fp_keys.insert(result.final_fp_keys.end(),
                                            obs.fp_keys.begin(),
                                            obs.fp_keys.end());
                result.final_class_keys.insert(
                    result.final_class_keys.end(), obs.class_keys.begin(),
                    obs.class_keys.end());
            }
        }
        if (!last) {
            const sim::Duration used =
                hold * static_cast<std::int64_t>(cfg.services);
            platform.advance(round_budget - used);
        }
    }

    for (const faas::InstanceId id : result.final_instances)
        result.occupied_hosts.insert(platform.oracleHostOf(id));
    result.cost_usd = platform.accountSpendUsd(attacker) - spend_before;
    EAAO_OBS_ONLY(recordCampaign(platform, "optimized", obs_start, result);)
    return result;
}

CampaignResult
runNaiveCampaign(faas::Platform &platform, faas::AccountId attacker,
                 std::uint32_t services,
                 std::uint32_t instances_per_service, faas::ExecEnv env,
                 faas::ContainerSize size)
{
    EAAO_OBS_ONLY(const sim::SimTime obs_start = platform.now();)
    const double spend_before = platform.accountSpendUsd(attacker);

    CampaignResult result;
    for (std::uint32_t s = 0; s < services; ++s) {
        result.services.push_back(
            platform.deployService(attacker, env, size));
    }

    for (const faas::ServiceId svc : result.services) {
        LaunchOptions launch;
        launch.instances = instances_per_service;
        launch.disconnect_after = false;
        LaunchObservation obs = launchAndObserve(platform, svc, launch);
        result.final_instances.insert(result.final_instances.end(),
                                      obs.ids.begin(), obs.ids.end());
        result.final_fp_keys.insert(result.final_fp_keys.end(),
                                    obs.fp_keys.begin(),
                                    obs.fp_keys.end());
        result.final_class_keys.insert(result.final_class_keys.end(),
                                       obs.class_keys.begin(),
                                       obs.class_keys.end());
        for (const auto key : obs.fp_keys)
            result.apparent_hosts.insert(key);
    }

    for (const faas::InstanceId id : result.final_instances)
        result.occupied_hosts.insert(platform.oracleHostOf(id));
    result.cost_usd = platform.accountSpendUsd(attacker) - spend_before;
    EAAO_OBS_ONLY(recordCampaign(platform, "naive", obs_start, result);)
    return result;
}

CoverageResult
measureCoverageOracle(const faas::Platform &platform,
                      const std::set<hw::HostId> &attacker_hosts,
                      const std::vector<faas::InstanceId> &victim_ids)
{
    CoverageResult result;
    result.victim_instances =
        static_cast<std::uint32_t>(victim_ids.size());
    for (const faas::InstanceId id : victim_ids) {
        if (attacker_hosts.count(platform.oracleHostOf(id)) > 0)
            ++result.covered_instances;
    }
    return result;
}

CoverageResult
measureCoverageViaChannel(
    faas::Platform &platform, channel::RngChannel &chan,
    const CampaignResult &attack,
    const std::vector<faas::InstanceId> &victim_ids,
    const std::vector<std::uint64_t> &victim_fp_keys,
    const std::vector<std::uint64_t> &victim_class_keys)
{
    EAAO_ASSERT(victim_ids.size() == victim_fp_keys.size(),
                "victim ids/keys mismatch");
    EAAO_ASSERT(victim_ids.size() == victim_class_keys.size(),
                "victim ids/class mismatch");

    // One attacker representative per apparent host keeps the combined
    // verification cheap.
    std::unordered_map<std::uint64_t, std::size_t> rep_of_key;
    for (std::size_t i = 0; i < attack.final_instances.size(); ++i)
        rep_of_key.emplace(attack.final_fp_keys[i], i);

    std::vector<faas::InstanceId> ids;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> classes;
    std::vector<bool> is_attacker;
    for (const auto &[key, idx] : rep_of_key) {
        ids.push_back(attack.final_instances[idx]);
        keys.push_back(key);
        classes.push_back(attack.final_class_keys[idx]);
        is_attacker.push_back(true);
    }
    const std::size_t victim_offset = ids.size();
    ids.insert(ids.end(), victim_ids.begin(), victim_ids.end());
    keys.insert(keys.end(), victim_fp_keys.begin(),
                victim_fp_keys.end());
    classes.insert(classes.end(), victim_class_keys.begin(),
                   victim_class_keys.end());
    is_attacker.insert(is_attacker.end(), victim_ids.size(), false);

    const VerifyResult verified =
        verifyScalable(platform, chan, ids, keys, classes);

    std::unordered_set<std::uint64_t> attacker_clusters;
    for (std::size_t i = 0; i < victim_offset; ++i)
        attacker_clusters.insert(verified.cluster_of[i]);

    CoverageResult result;
    result.victim_instances =
        static_cast<std::uint32_t>(victim_ids.size());
    for (std::size_t i = victim_offset; i < ids.size(); ++i) {
        if (attacker_clusters.count(verified.cluster_of[i]) > 0)
            ++result.covered_instances;
    }
    return result;
}

bool
ApparentHostCounter::add(const Gen1Reading &reading)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : reading.cpu_model) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    const auto bucket = static_cast<std::int64_t>(
        std::llround(reading.tboot_s / p_boot_s_));
    auto &buckets = buckets_by_model_[h];
    bool known = false;
    for (std::int64_t d = -2; d <= 2 && !known; ++d)
        known = buckets.count(bucket + d) > 0;
    buckets.insert(bucket);
    if (!known)
        ++count_;
    return !known;
}

ExplorationResult
exploreClusterSize(faas::Platform &platform,
                   const std::vector<faas::AccountId> &accounts,
                   std::uint32_t services_per_account,
                   std::uint32_t launches_per_service,
                   const PrimeOptions &prime)
{
    ExplorationResult result;
    ApparentHostCounter counter(prime.launch.p_boot_s);

    for (const faas::AccountId acct : accounts) {
        for (std::uint32_t s = 0; s < services_per_account; ++s) {
            const faas::ServiceId svc = platform.deployService(
                acct, faas::ExecEnv::Gen1, faas::sizes::kSmall);
            PrimeOptions po = prime;
            po.launches = launches_per_service;
            po.keep_last_connected = false;
            const auto launches = primeService(platform, svc, po);
            for (const auto &obs : launches) {
                for (const auto &reading : obs.readings)
                    counter.add(reading);
                result.cumulative_unique.push_back(counter.count());
            }
            // Let the service cool down so the next service starts in
            // a comparable state.
            platform.advance(sim::Duration::minutes(16));
        }
    }
    result.total = counter.count();
    return result;
}

} // namespace eaao::core
