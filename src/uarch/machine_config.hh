/**
 * @file
 * Machine-model configurations: the PowerPC 620, the paper's enhanced
 * 620+ (Section 4.1), and the Alpha AXP 21164 (Section 4.2). Both
 * compare member by member, nested memory and branch-predictor
 * configs included, so a machine config is its own run-cache key.
 */

#ifndef LVPLIB_UARCH_MACHINE_CONFIG_HH
#define LVPLIB_UARCH_MACHINE_CONFIG_HH

#include <compare>
#include <string>

#include "mem/hierarchy.hh"
#include "uarch/bpred.hh"

namespace lvplib::uarch
{

/**
 * Out-of-order machine parameters (PowerPC 620 family).
 *
 * The 620+ "differs from the 620 by doubling the number of reservation
 * stations, FPR and GPR rename buffers, and completion buffer entries;
 * adding an additional load/store unit without an additional cache
 * port; and relaxing dispatching requirements to allow up to two loads
 * or stores to dispatch and issue per cycle."
 */
struct Ppc620Config
{
    std::string name = "620";
    unsigned fetchWidth = 4;
    unsigned fetchBuffer = 8;
    unsigned dispatchWidth = 4;
    unsigned completeWidth = 4;
    unsigned rsPerUnit = 2;      ///< reservation stations per FU
    unsigned gprRename = 8;
    unsigned fprRename = 8;
    unsigned completionEntries = 16;
    unsigned numScfx = 2;
    unsigned numMcfx = 1;
    unsigned numFpu = 1;
    unsigned numLsu = 1;
    unsigned numBru = 1;
    unsigned memOpsPerCycle = 1; ///< loads/stores dispatched per cycle
    unsigned mshrs = 4;          ///< outstanding non-blocking misses
    mem::HierarchyConfig mem = mem::HierarchyConfig::ppc620();
    BpredConfig bpred;           ///< front-end branch prediction

    /**
     * Ablation knob for value-misprediction recovery. The paper's 620
     * selectively reissues only the dependents of a mispredicted load
     * (false, the default); true instead squashes and refetches
     * everything younger than the load, like a branch mispredict —
     * the simpler hardware many later proposals assumed.
     */
    bool squashOnValueMispredict = false;

    /**
     * Fatal, naming the field, when a width, unit count, fetch buffer
     * or MSHR count is zero. Pool sizes (rsPerUnit, gprRename,
     * fprRename, completionEntries) may be 0, which means unlimited.
     */
    void validate() const;

    /** The baseline PowerPC 620. */
    static Ppc620Config base620();

    /** The paper's aggressive next-generation 620+. */
    static Ppc620Config plus620();

    auto operator<=>(const Ppc620Config &) const = default;
};

/**
 * In-order machine parameters (Alpha AXP 21164 per Section 4.2: MAF
 * omitted, so L1 misses block; an extra compare stage and a reissue
 * buffer exist only in LVP configurations).
 */
struct AlphaConfig
{
    std::string name = "21164";
    unsigned width = 4;        ///< dispatch width
    unsigned intPipes = 2;     ///< integer pipes (also the 2 mem ports)
    unsigned fpPipes = 2;
    unsigned inflight = 8;     ///< squash window: two dispatch groups
    mem::HierarchyConfig mem = mem::HierarchyConfig::alpha21164();
    BpredConfig bpred;         ///< front-end branch prediction

    /** Fatal, naming the field, when width or a pipe count is zero. */
    void validate() const;

    static AlphaConfig base21164();

    auto operator<=>(const AlphaConfig &) const = default;
};

} // namespace lvplib::uarch

#endif // LVPLIB_UARCH_MACHINE_CONFIG_HH
