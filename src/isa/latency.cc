#include "isa/latency.hh"

namespace lvplib::isa
{

const char *
machineIsaName(MachineIsa m)
{
    switch (m) {
      case MachineIsa::Ppc620: return "PowerPC 620";
      case MachineIsa::Alpha21164: return "Alpha AXP 21164";
    }
    return "?";
}

unsigned
mispredictPenalty(MachineIsa m)
{
    // Table 5: 0/1+ for the 620 (refetch; the '+' is the refetch time
    // modeled by the pipeline itself), 0/4 for the 21164.
    return m == MachineIsa::Ppc620 ? 1 : 4;
}

} // namespace lvplib::isa
