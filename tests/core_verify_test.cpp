/**
 * @file
 * Unit tests for co-location verification: the scalable method, its
 * baselines, and their cost/accuracy trade-offs.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/fingerprint.hpp"
#include "core/verify.hpp"
#include "stats/clustering.hpp"

namespace eaao::core {
namespace {

struct Fixture
{
    faas::PlatformConfig cfg;
    std::unique_ptr<faas::Platform> platform;
    faas::AccountId acct = 0;
    faas::ServiceId svc = 0;

    explicit Fixture(std::uint64_t seed = 1,
                     faas::ExecEnv env = faas::ExecEnv::Gen1)
    {
        cfg.profile = faas::DataCenterProfile::usEast1();
        cfg.profile.host_count = 330;
        cfg.seed = seed;
        platform = std::make_unique<faas::Platform>(cfg);
        acct = platform->createAccount();
        svc = platform->deployService(acct, env);
    }

    /** Launch n instances and collect ids + fingerprints + classes. */
    void
    launch(std::uint32_t n)
    {
        ids = platform->connect(svc, n);
        fp_keys.clear();
        class_keys.clear();
        truth.clear();
        for (const faas::InstanceId id : ids) {
            faas::SandboxView sbx = platform->sandbox(id);
            if (sbx.env() == faas::ExecEnv::Gen1) {
                const Gen1Fingerprint fp =
                    quantizeGen1(readGen1(sbx), 1.0);
                fp_keys.push_back(fingerprintKey(fp));
                std::uint64_t h = 0xcbf29ce484222325ULL;
                for (const char c : fp.cpu_model) {
                    h ^= static_cast<unsigned char>(c);
                    h *= 0x100000001b3ULL;
                }
                class_keys.push_back(h);
            } else {
                const auto fp = readGen2(sbx);
                fp_keys.push_back(fingerprintKey(fp));
                class_keys.push_back(fingerprintKey(fp));
            }
            truth.push_back(platform->oracleHostOf(id));
        }
    }

    std::vector<faas::InstanceId> ids;
    std::vector<std::uint64_t> fp_keys;
    std::vector<std::uint64_t> class_keys;
    std::vector<std::uint64_t> truth;
};

TEST(VerifyScalable, RecoversTrueClusters)
{
    Fixture f;
    f.launch(200);
    channel::RngChannel chan(*f.platform);
    const VerifyResult result = verifyScalable(
        *f.platform, chan, f.ids, f.fp_keys, f.class_keys);

    const stats::PairConfusion pc =
        stats::comparePairs(result.cluster_of, f.truth);
    EXPECT_EQ(pc.fp, 0u);
    EXPECT_EQ(pc.fn, 0u);
    EXPECT_EQ(result.clusterCount(),
              stats::distinctCount(f.truth));
}

TEST(VerifyScalable, BestCaseTestCountIsOrderHosts)
{
    Fixture f(2);
    f.launch(400);
    channel::RngChannel chan(*f.platform);
    const VerifyResult result = verifyScalable(
        *f.platform, chan, f.ids, f.fp_keys, f.class_keys);

    const std::size_t hosts = stats::distinctCount(f.truth);
    // One one-shot test per occupied host, one step-3 test, plus a
    // small allowance for boundary-straddling fingerprints.
    EXPECT_LE(result.group_tests, hosts + 8);
    EXPECT_GE(result.group_tests, hosts - 8);
}

TEST(VerifyScalable, ParallelismShortensWaves)
{
    Fixture f(3);
    f.launch(400);
    channel::RngChannel chan_par(*f.platform);
    VerifyOptions par;
    par.parallelize = true;
    const VerifyResult with_par = verifyScalable(
        *f.platform, chan_par, f.ids, f.fp_keys, f.class_keys, par);

    channel::RngChannel chan_ser(*f.platform);
    VerifyOptions ser;
    ser.parallelize = false;
    const VerifyResult without = verifyScalable(
        *f.platform, chan_ser, f.ids, f.fp_keys, f.class_keys, ser);

    // Same clustering either way...
    const stats::PairConfusion a =
        stats::comparePairs(with_par.cluster_of, f.truth);
    const stats::PairConfusion b =
        stats::comparePairs(without.cluster_of, f.truth);
    EXPECT_EQ(a.fp + a.fn, 0u);
    EXPECT_EQ(b.fp + b.fn, 0u);
    // ...but parallel waves finish no later than serialized ones.
    EXPECT_LE(with_par.waves, without.waves);
}

TEST(VerifyScalable, HandlesFingerprintFalsePositives)
{
    // Force all fingerprints identical: the verifier must still
    // recover true clusters from covert-channel evidence alone.
    Fixture f(4);
    f.launch(60);
    std::vector<std::uint64_t> same_key(f.ids.size(), 12345);
    std::vector<std::uint64_t> same_class(f.ids.size(), 1);
    channel::RngChannel chan(*f.platform);
    const VerifyResult result = verifyScalable(
        *f.platform, chan, f.ids, same_key, same_class);

    const stats::PairConfusion pc =
        stats::comparePairs(result.cluster_of, f.truth);
    EXPECT_EQ(pc.fp, 0u);
    EXPECT_EQ(pc.fn, 0u);
}

TEST(VerifyScalable, HandlesFingerprintFalseNegatives)
{
    // Force all fingerprints distinct: step 3 must find co-location.
    Fixture f(5);
    f.launch(60);
    std::vector<std::uint64_t> distinct_keys(f.ids.size());
    for (std::size_t i = 0; i < distinct_keys.size(); ++i)
        distinct_keys[i] = 1000 + i;
    channel::RngChannel chan(*f.platform);
    const VerifyResult result = verifyScalable(
        *f.platform, chan, f.ids, distinct_keys, f.class_keys);

    const stats::PairConfusion pc =
        stats::comparePairs(result.cluster_of, f.truth);
    EXPECT_EQ(pc.fn, 0u);
    EXPECT_EQ(pc.fp, 0u);
}

TEST(VerifyScalable, Gen2SkipsStepThreeAndStaysCorrect)
{
    Fixture f(6, faas::ExecEnv::Gen2);
    f.launch(150);
    channel::RngChannel chan(*f.platform);
    VerifyOptions opts;
    opts.no_false_negatives = true;
    const VerifyResult result = verifyScalable(
        *f.platform, chan, f.ids, f.fp_keys, f.class_keys, opts);

    const stats::PairConfusion pc =
        stats::comparePairs(result.cluster_of, f.truth);
    EXPECT_EQ(pc.fp, 0u);
    EXPECT_EQ(pc.fn, 0u);
}

TEST(VerifyScalable, SingleInstanceTrivial)
{
    Fixture f(7);
    f.launch(1);
    channel::RngChannel chan(*f.platform);
    const VerifyResult result = verifyScalable(
        *f.platform, chan, f.ids, f.fp_keys, f.class_keys);
    EXPECT_EQ(result.cluster_of.size(), 1u);
    EXPECT_EQ(result.group_tests, 0u);
}

TEST(VerifyPairwise, MatchesScalableButCostsQuadratic)
{
    Fixture f(8);
    f.launch(60);

    channel::RngChannelConfig quick;
    quick.trials = 6;
    quick.detect_min = 3;
    channel::RngChannel pair_chan(*f.platform, quick);
    const VerifyResult pairwise =
        verifyPairwise(*f.platform, pair_chan, f.ids);
    EXPECT_EQ(pairwise.group_tests, 60u * 59u / 2u);

    const stats::PairConfusion pc =
        stats::comparePairs(pairwise.cluster_of, f.truth);
    EXPECT_EQ(pc.fp, 0u);
    EXPECT_EQ(pc.fn, 0u);

    channel::RngChannel chan(*f.platform);
    const VerifyResult scalable = verifyScalable(
        *f.platform, chan, f.ids, f.fp_keys, f.class_keys);
    EXPECT_LT(scalable.group_tests * 20, pairwise.group_tests);
    EXPECT_LT(scalable.elapsed, pairwise.elapsed);
    EXPECT_LT(scalable.cost_usd, pairwise.cost_usd);
}

TEST(VerifyPairwiseMemBus, WorksButIsSlow)
{
    Fixture f(9);
    f.launch(20);
    channel::MemBusChannel chan(*f.platform);
    const VerifyResult result =
        verifyPairwiseMemBus(*f.platform, chan, f.ids);
    // 190 screening tests plus confirmation retests of positives.
    EXPECT_GE(result.group_tests, 190u);
    EXPECT_GE(result.elapsed, chan.testDuration() * 190);
    // Each truly co-located pair costs two confirmations on top of
    // its screen; false-positive screens add a handful more.
    EXPECT_LE(result.group_tests, 190u + 2u * 190u);
    // The channel is noisy (2% FP / trial), so allow a few errors.
    const stats::PairConfusion pc =
        stats::comparePairs(result.cluster_of, f.truth);
    EXPECT_LE(pc.fn, 2u);
}

TEST(SingleInstanceElimination, FailsInFaaS)
{
    // Every FaaS instance shares its host with siblings, so SIE cannot
    // eliminate anything (Section 4.3).
    Fixture f(10);
    f.launch(300);
    channel::RngChannel chan(*f.platform);
    const auto survivors =
        singleInstanceElimination(*f.platform, chan, f.ids);
    // At most the tail host of the spread holds a lone instance; SIE
    // removes essentially nothing.
    EXPECT_GE(survivors.size() + 2, f.ids.size());
}

TEST(SingleInstanceElimination, WorksWhenInstancesAreAlone)
{
    // Control: single instances on distinct hosts are all eliminated.
    // Keep the first instance seen on each host of a launched pool, so
    // every participant is alone by construction, whatever the seed.
    Fixture f(11);
    f.launch(30);
    std::vector<faas::InstanceId> alone;
    std::set<std::uint64_t> hosts;
    for (std::size_t i = 0; i < f.ids.size(); ++i) {
        if (hosts.insert(f.truth[i]).second)
            alone.push_back(f.ids[i]);
    }
    ASSERT_GE(alone.size(), 3u);
    channel::RngChannel chan(*f.platform);
    const auto survivors =
        singleInstanceElimination(*f.platform, chan, alone);
    EXPECT_TRUE(survivors.empty());
}

} // namespace
} // namespace eaao::core
