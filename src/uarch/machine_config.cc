#include "uarch/machine_config.hh"

#include <initializer_list>
#include <utility>

#include "util/logging.hh"

namespace lvplib::uarch
{

namespace
{

using Field = std::pair<const char *, unsigned>;

void
requireNonZero(const char *kind, const std::string &name,
               std::initializer_list<Field> fields)
{
    for (const auto &[field, value] : fields) {
        if (value == 0)
            lvp_fatal("%s '%s': %s must be at least 1", kind,
                      name.c_str(), field);
    }
}

} // namespace

void
Ppc620Config::validate() const
{
    requireNonZero("Ppc620Config", name,
                   {{"fetchWidth", fetchWidth},
                    {"fetchBuffer", fetchBuffer},
                    {"dispatchWidth", dispatchWidth},
                    {"completeWidth", completeWidth},
                    {"numScfx", numScfx},
                    {"numMcfx", numMcfx},
                    {"numFpu", numFpu},
                    {"numLsu", numLsu},
                    {"numBru", numBru},
                    {"memOpsPerCycle", memOpsPerCycle},
                    {"mshrs", mshrs}});
}

void
AlphaConfig::validate() const
{
    requireNonZero("AlphaConfig", name,
                   {{"width", width},
                    {"intPipes", intPipes},
                    {"fpPipes", fpPipes}});
}

Ppc620Config
Ppc620Config::base620()
{
    return Ppc620Config();
}

Ppc620Config
Ppc620Config::plus620()
{
    Ppc620Config c;
    c.name = "620+";
    c.rsPerUnit = 4;
    c.gprRename = 16;
    c.fprRename = 16;
    c.completionEntries = 32;
    c.numLsu = 2;
    c.memOpsPerCycle = 2;
    return c;
}

AlphaConfig
AlphaConfig::base21164()
{
    return AlphaConfig();
}

} // namespace lvplib::uarch
