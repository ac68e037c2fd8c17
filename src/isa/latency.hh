/**
 * @file
 * Instruction issue/result latencies for the two machine models,
 * following the paper's Table 5.
 *
 * "Issue latency" is the number of cycles the functional unit is
 * occupied (issue latency == result latency means unpipelined);
 * "result latency" is the number of cycles until dependents may use
 * the result. Load result latency is the L1-hit latency; cache misses
 * add on top in the memory hierarchy model.
 */

#ifndef LVPLIB_ISA_LATENCY_HH
#define LVPLIB_ISA_LATENCY_HH

#include <array>

#include "isa/opcodes.hh"
#include "util/logging.hh"

namespace lvplib::isa
{

/** Which of the paper's two machines a latency is being asked for. */
enum class MachineIsa
{
    Ppc620,    ///< PowerPC 620 / 620+ ("brainiac", out-of-order)
    Alpha21164 ///< Alpha AXP 21164 ("speed demon", in-order)
};

const char *machineIsaName(MachineIsa m);

/** Issue/result latency pair for one opcode on one machine. */
struct OpLatency
{
    unsigned issue;  ///< cycles the FU stays busy
    unsigned result; ///< cycles until the result is available
};

namespace detail
{

/** Paper Table 5, one opcode on one machine. */
constexpr OpLatency
tableFiveLatency(MachineIsa m, Opcode op)
{
    const bool ppc = (m == MachineIsa::Ppc620);
    switch (fuType(op)) {
      case FuType::SCFX:
        // Simple integer: 1/1 on both machines.
        return {1, 1};

      case FuType::MCFX:
        // Complex integer: 1-35 on the 620, 16/16 on the 21164.
        switch (op) {
          case Opcode::MULL:
            return ppc ? OpLatency{2, 3} : OpLatency{16, 16};
          case Opcode::DIVD:
          case Opcode::REMD:
            return ppc ? OpLatency{35, 35} : OpLatency{16, 16};
          default:
            // mfspr/mtspr-class moves: multi-cycle unit, short latency.
            return {1, 1};
        }

      case FuType::FPU:
        switch (op) {
          case Opcode::FDIV:
            // Complex FP: 18/18 (620), 1/36 (21164).
            return ppc ? OpLatency{18, 18} : OpLatency{1, 36};
          case Opcode::FSQRT:
            return ppc ? OpLatency{18, 18} : OpLatency{1, 65};
          default:
            // Simple FP: 1/3 (620), 1/4 (21164).
            return ppc ? OpLatency{1, 3} : OpLatency{1, 4};
        }

      case FuType::LSU:
        // Load/store: 1 issue, 2-cycle L1-hit result on both.
        return {1, 2};

      case FuType::BRU:
        // Branches resolve in one cycle; the misprediction penalty is
        // modeled separately by each machine model.
        return {1, 1};
    }
    return {0, 0};
}

using LatencyTable =
    std::array<OpLatency, static_cast<std::size_t>(Opcode::NumOpcodes)>;

constexpr LatencyTable
makeLatencyTable(MachineIsa m)
{
    LatencyTable t{};
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = tableFiveLatency(m, static_cast<Opcode>(i));
    return t;
}

inline constexpr std::array<LatencyTable, 2> latencyTables = {
    makeLatencyTable(MachineIsa::Ppc620),
    makeLatencyTable(MachineIsa::Alpha21164)};

} // namespace detail

/**
 * Paper Table 5 lookup: one load from a per-opcode table, since both
 * timing models ask once per record.
 */
inline OpLatency
opLatency(MachineIsa m, Opcode op)
{
    lvp_dassert(op < Opcode::NumOpcodes, "opLatency: bad opcode %d",
                static_cast<int>(op));
    return detail::latencyTables[static_cast<std::size_t>(m)]
                                [static_cast<std::size_t>(op)];
}

/** Branch misprediction penalty in cycles (paper Table 5 last row). */
unsigned mispredictPenalty(MachineIsa m);

} // namespace lvplib::isa

#endif // LVPLIB_ISA_LATENCY_HH
