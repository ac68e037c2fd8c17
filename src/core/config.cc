#include "core/config.hh"

#include <bit>

#include "util/logging.hh"

namespace lvplib::core
{

LvpConfig
LvpConfig::simple()
{
    return {.name = "Simple", .lvptEntries = 1024, .historyDepth = 1,
            .lctEntries = 256, .lctBits = 2, .cvuEntries = 32};
}

LvpConfig
LvpConfig::constant()
{
    return {.name = "Constant", .lvptEntries = 1024, .historyDepth = 1,
            .lctEntries = 256, .lctBits = 1, .cvuEntries = 128};
}

LvpConfig
LvpConfig::limit()
{
    return {.name = "Limit", .lvptEntries = 4096, .historyDepth = 16,
            .lctEntries = 1024, .lctBits = 2, .cvuEntries = 128};
}

LvpConfig
LvpConfig::perfect()
{
    return {.name = "Perfect", .lvptEntries = 1024, .historyDepth = 1,
            .lctEntries = 256, .lctBits = 2, .cvuEntries = 0,
            .perfectPrediction = true};
}

std::vector<LvpConfig>
LvpConfig::paperConfigs()
{
    return {simple(), constant(), limit(), perfect()};
}

void
LvpConfig::validate() const
{
    if (!std::has_single_bit(lvptEntries))
        lvp_fatal("lvptEntries must be a power of two (%u)", lvptEntries);
    if (!std::has_single_bit(lctEntries))
        lvp_fatal("lctEntries must be a power of two (%u)", lctEntries);
    if (historyDepth < 1 || historyDepth > 64)
        lvp_fatal("historyDepth out of range (%u)", historyDepth);
    if (lctBits < 1 || lctBits > 8)
        lvp_fatal("lctBits out of range (%u)", lctBits);
    // A set-associative CVU needs a power-of-two set count; catch it
    // here at config time rather than deep in the Cvu constructor.
    if (cvuWays > 0 &&
        (cvuEntries % cvuWays != 0 ||
         !std::has_single_bit(cvuEntries / cvuWays)))
        lvp_fatal("cvu sets (cvuEntries %u / cvuWays %u) must be a "
                  "power of two",
                  cvuEntries, cvuWays);
}

} // namespace lvplib::core
