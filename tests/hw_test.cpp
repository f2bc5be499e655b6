/**
 * @file
 * Unit tests for the hardware layer: SKUs, TSC domains, host noise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "hw/cpu_sku.hpp"
#include "hw/host.hpp"
#include "hw/tsc.hpp"

namespace eaao::hw {
namespace {

TEST(SkuCatalog, ParsesLabeledFrequency)
{
    EXPECT_DOUBLE_EQ(
        SkuCatalog::labeledFrequencyHz("Intel Xeon CPU @ 2.00GHz"),
        2.00e9);
    EXPECT_DOUBLE_EQ(
        SkuCatalog::labeledFrequencyHz("Intel Xeon CPU @ 2.25GHz"),
        2.25e9);
    EXPECT_DOUBLE_EQ(SkuCatalog::labeledFrequencyHz("Virtual CPU"), 0.0);
    EXPECT_DOUBLE_EQ(SkuCatalog::labeledFrequencyHz(""), 0.0);
}

TEST(SkuCatalog, CatalogEntriesAreSelfConsistent)
{
    SkuCatalog catalog;
    ASSERT_GT(catalog.size(), 0u);
    for (SkuId id = 0; id < catalog.size(); ++id) {
        const CpuSku &sku = catalog.get(id);
        EXPECT_GT(sku.nominal_hz, 0.0);
        EXPECT_GT(sku.vcpus, 0u);
        // The label the attacker parses must equal the nominal rate.
        EXPECT_DOUBLE_EQ(SkuCatalog::labeledFrequencyHz(sku.model_name),
                         sku.nominal_hz);
    }
}

/** The sscanf form labeledFrequencyHz replaced: the reference parse. */
double
sscanfFrequencyHz(const std::string &model_name)
{
    const auto at = model_name.rfind('@');
    if (at == std::string::npos)
        return 0.0;
    double ghz = 0.0;
    if (std::sscanf(model_name.c_str() + at, "@ %lfGHz", &ghz) != 1)
        return 0.0;
    return ghz * 1e9;
}

TEST(SkuCatalog, LabelParseMatchesSscanfBitForBit)
{
    std::vector<std::string> names;
    SkuCatalog catalog;
    for (SkuId id = 0; id < catalog.size(); ++id)
        names.push_back(catalog.get(id).model_name);
    for (const char *edge :
         {"Virtual CPU", "@", "@ GHz", "@2.2GHz", "x @\t2.30GHz",
          "x @\t \t2.60GHz", "@ ", "@ -2.5GHz", "@ +2.8GHz", "@ +-2GHz",
          "@ +GHz", "@ .5GHz", "@ 2.2", "@ 2.2MHz", "@ 1e0GHz",
          "a @ 1 @ 2.25GHz", "@ 0.1GHz", "@ 2.0000000000000001GHz"})
        names.emplace_back(edge);
    for (const std::string &name : names) {
        const double got = SkuCatalog::labeledFrequencyHz(name);
        const double want = sscanfFrequencyHz(name);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got))
            << "'" << name << "': " << got << " vs " << want;
    }
}

class TscDomainTest : public ::testing::Test
{
  protected:
    sim::Rng rng_{99};
    TscConfig cfg_;
};

TEST_F(TscDomainTest, CounterStartsAtBootAndTicksAtTrueRate)
{
    const sim::SimTime boot = sim::SimTime() - sim::Duration::days(10);
    TscDomain tsc(boot, 2.0e9, 1500.0, cfg_, rng_);
    EXPECT_EQ(tsc.idealRead(boot), 0u);
    const sim::SimTime later = boot + sim::Duration::seconds(100);
    const double expected = 100.0 * (2.0e9 + 1500.0);
    EXPECT_NEAR(static_cast<double>(tsc.idealRead(later)), expected, 1.0);
}

TEST_F(TscDomainTest, ReadJitterIsSmall)
{
    const sim::SimTime boot = sim::SimTime() - sim::Duration::days(1);
    TscDomain tsc(boot, 2.0e9, 0.0, cfg_, rng_);
    const sim::SimTime t = sim::SimTime();
    const auto ideal = static_cast<double>(tsc.idealRead(t));
    for (int i = 0; i < 100; ++i) {
        const auto v = static_cast<double>(tsc.read(t, rng_));
        EXPECT_NEAR(v, ideal, 2000.0); // within ~1 us at 2 GHz
    }
}

TEST_F(TscDomainTest, RefinedFrequencySnapsToGranularity)
{
    for (int i = 0; i < 50; ++i) {
        TscDomain tsc(sim::SimTime(), 2.2e9, 700.0, cfg_, rng_);
        const double refined = tsc.refinedHz();
        EXPECT_DOUBLE_EQ(std::fmod(refined, 1000.0), 0.0);
        // Calibration noise is kHz-scale; refined stays near true.
        EXPECT_NEAR(refined, 2.2e9, 50e3);
    }
}

TEST_F(TscDomainTest, RefinedFrequencyVariesAcrossBoots)
{
    // Per-boot calibration noise dominates: two boots of the same
    // crystal usually refine to different values.
    int distinct = 0;
    TscDomain first(sim::SimTime(), 2.0e9, 300.0, cfg_, rng_);
    for (int i = 0; i < 20; ++i) {
        TscDomain other(sim::SimTime(), 2.0e9, 300.0, cfg_, rng_);
        distinct += (other.refinedHz() != first.refinedHz());
    }
    EXPECT_GT(distinct, 10);
}

class HostMachineTest : public ::testing::Test
{
  protected:
    HostMachine
    makeHost(std::uint64_t seed, double noisy_fraction = 0.0)
    {
        sim::Rng rng(seed);
        TimingNoiseConfig timing;
        timing.noisy_timer_fraction = noisy_fraction;
        SkuCatalog catalog;
        return HostMachine(0, 0, catalog.get(0),
                           sim::SimTime() - sim::Duration::days(5),
                           1000.0, TscConfig{}, timing, rng);
    }
};

TEST_F(HostMachineTest, ExposesSkuMetadata)
{
    HostMachine host = makeHost(1);
    EXPECT_EQ(host.modelName(), "Intel Xeon CPU @ 2.00GHz");
    EXPECT_GT(host.vcpus(), 0u);
    EXPECT_FALSE(host.noisyTimer());
    EXPECT_DOUBLE_EQ(host.freqMeasSigmaHz(), 30.0);
}

TEST_F(HostMachineTest, NoisyTimerHostsGetLargeSigma)
{
    HostMachine host = makeHost(2, 1.0);
    EXPECT_TRUE(host.noisyTimer());
    EXPECT_GE(host.freqMeasSigmaHz(), 10e3);
}

TEST_F(HostMachineTest, WallClockDelayIsNonNegativeAndMostlySmall)
{
    HostMachine host = makeHost(3);
    sim::Rng rng(7);
    const sim::SimTime now;
    int clean = 0;
    for (int i = 0; i < 2000; ++i) {
        const sim::SimTime sample = host.sampleWallClock(now, rng);
        const double delay = (sample - now).secondsF();
        ASSERT_GT(delay, 0.0);
        ASSERT_LT(delay, 1.0);
        clean += (delay < 100e-6);
    }
    // ~80% of samples follow the clean microsecond-scale path.
    EXPECT_GT(clean, 1400);
    EXPECT_LT(clean, 1900);
}

TEST_F(HostMachineTest, RebootResetsCounterKeepsCrystal)
{
    HostMachine host = makeHost(4);
    const double true_before = host.tsc().trueHz();
    sim::Rng rng(11);
    const sim::SimTime when = sim::SimTime() + sim::Duration::hours(1);
    host.reboot(when, TscConfig{}, rng);
    EXPECT_EQ(host.tsc().bootTime(), when);
    EXPECT_EQ(host.tsc().idealRead(when), 0u);
    // Label error is a crystal property: unchanged across reboots.
    EXPECT_DOUBLE_EQ(host.tsc().trueHz(), true_before);
}

TEST_F(HostMachineTest, RngPressureBookkeeping)
{
    HostMachine host = makeHost(5);
    EXPECT_EQ(host.rngPressure(), 0u);
    host.addRngPressure();
    host.addRngPressure();
    EXPECT_EQ(host.rngPressure(), 2u);
    host.removeRngPressure();
    EXPECT_EQ(host.rngPressure(), 1u);
}

} // namespace
} // namespace eaao::hw
