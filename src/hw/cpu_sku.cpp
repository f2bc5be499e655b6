/**
 * @file
 * Implementation of the CPU SKU catalog.
 */

#include "hw/cpu_sku.hpp"

#include <cctype>
#include <charconv>
#include <system_error>

#include "support/logging.hpp"

namespace eaao::hw {

SkuCatalog::SkuCatalog()
{
    skus_ = {
        {"Intel Xeon CPU @ 2.00GHz", 2.00e9, 96, 384.0},
        {"Intel Xeon CPU @ 2.20GHz", 2.20e9, 64, 256.0},
        {"Intel Xeon CPU @ 2.25GHz", 2.25e9, 128, 512.0},
        {"Intel Xeon CPU @ 2.30GHz", 2.30e9, 64, 256.0},
        {"Intel Xeon CPU @ 2.60GHz", 2.60e9, 96, 384.0},
        {"Intel Xeon CPU @ 2.80GHz", 2.80e9, 112, 448.0},
    };
}

const CpuSku &
SkuCatalog::get(SkuId id) const
{
    EAAO_ASSERT(id < skus_.size(), "unknown SKU id ", id);
    return skus_[id];
}

double
SkuCatalog::labeledFrequencyHz(const std::string &model_name)
{
    // Look for the "@ <num>GHz" suffix. This reads what the former
    // `sscanf(at, "@ %lfGHz")` read: any run of whitespace (or none)
    // after the '@', then a decimal number, correctly rounded like
    // strtod; the "GHz" unit itself was never checked.
    const auto at = model_name.rfind('@');
    if (at == std::string::npos)
        return 0.0;
    const char *p = model_name.data() + at + 1;
    const char *const end = model_name.data() + model_name.size();
    while (p != end && std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    if (p != end && *p == '+') {
        // scanf takes an explicit plus sign; from_chars does not.
        if (++p != end && *p == '-')
            return 0.0;
    }
    double ghz = 0.0;
    if (std::from_chars(p, end, ghz).ec != std::errc{})
        return 0.0;
    return ghz * 1e9;
}

} // namespace eaao::hw
