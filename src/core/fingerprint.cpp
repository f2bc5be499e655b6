/**
 * @file
 * Implementation of host fingerprinting.
 */

#include "core/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hw/cpu_sku.hpp"
#include "sim/rng.hpp"
#include "support/logging.hpp"

namespace eaao::core {

Gen1Reading
readGen1(faas::SandboxView &sandbox)
{
    const std::string model = sandbox.cpuModelName();
    const double f = hw::SkuCatalog::labeledFrequencyHz(model);
    EAAO_ASSERT(f > 0.0,
                "model string carries no labeled frequency: ", model);
    return readGen1WithFrequency(sandbox, f);
}

Gen1Reading
readGen1WithFrequency(faas::SandboxView &sandbox, double frequency_hz)
{
    EAAO_ASSERT(frequency_hz > 0.0, "non-positive frequency");
    const faas::TimestampSample ts = sandbox.readTimestamp();

    Gen1Reading r;
    r.cpu_model = sandbox.cpuModelName();
    r.frequency_hz = frequency_hz;
    r.wall_s = ts.wall.secondsF();
    // Eq. 4.1: T_boot = T_w - tsc / f.
    r.tboot_s = r.wall_s - static_cast<double>(ts.tsc) / frequency_hz;
    return r;
}

Gen1Reading
readGen1Median(faas::SandboxView &sandbox, std::uint32_t reps)
{
    EAAO_ASSERT(reps >= 1, "need at least one repetition");
    std::vector<Gen1Reading> readings;
    readings.reserve(reps);
    // The model string is the host's and does not change between
    // reads: parse its labeled frequency once.
    readings.push_back(readGen1(sandbox));
    for (std::uint32_t r = 1; r < reps; ++r) {
        readings.push_back(
            readGen1WithFrequency(sandbox, readings.front().frequency_hz));
    }
    std::sort(readings.begin(), readings.end(),
              [](const Gen1Reading &a, const Gen1Reading &b) {
                  return a.tboot_s < b.tboot_s;
              });
    return readings[readings.size() / 2];
}

Gen1Fingerprint
quantizeGen1(const Gen1Reading &reading, double p_boot_s)
{
    EAAO_ASSERT(p_boot_s > 0.0, "non-positive rounding precision");
    Gen1Fingerprint fp;
    fp.cpu_model = reading.cpu_model;
    fp.boot_bucket =
        static_cast<std::int64_t>(std::llround(reading.tboot_s / p_boot_s));
    return fp;
}

std::uint64_t
fingerprintKey(const Gen1Fingerprint &fp)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : fp.cpu_model) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return sim::mix64(h ^ static_cast<std::uint64_t>(fp.boot_bucket));
}

Gen2Fingerprint
readGen2(faas::SandboxView &sandbox)
{
    const double hz = sandbox.refinedTscFrequencyHz();
    Gen2Fingerprint fp;
    fp.refined_khz = static_cast<std::int64_t>(std::llround(hz / 1000.0));
    return fp;
}

std::uint64_t
fingerprintKey(const Gen2Fingerprint &fp)
{
    return sim::mix64(0x47454e32ULL ^ // "GEN2"
                      static_cast<std::uint64_t>(fp.refined_khz));
}

} // namespace eaao::core
