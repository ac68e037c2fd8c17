/**
 * @file
 * Trace-driven timing model of the PowerPC 620 / 620+ (paper Section
 * 4.1): out-of-order issue from per-FU reservation stations, register
 * rename buffers, a 16/32-entry completion buffer with in-order
 * completion, a dual-banked non-blocking L1, store-to-load
 * forwarding, branch prediction, and the LVP Unit's speculative value
 * forwarding with one-cycle verification.
 *
 * LVP semantics modeled (paper Section 4.1):
 *  - predicted loads forward their value to dependents at dispatch;
 *  - dependents may issue speculatively but hold their reservation
 *    stations until the load verifies (one extra cycle of occupancy
 *    even for correct predictions);
 *  - verification takes one cycle beyond the load's actual data
 *    return, so a misprediction costs dependents exactly one cycle of
 *    latency relative to not predicting, plus the structural hazards
 *    of their wasted speculative issue;
 *  - constant loads (CVU hits) never pay a cache-miss penalty, and a
 *    CVU match cancels the miss (no fill, no L2 traffic);
 *  - loads verify via an explicit comparison stage; the verification
 *    latency distribution feeds Figure 7.
 */

#ifndef LVPLIB_UARCH_PPC620_HH
#define LVPLIB_UARCH_PPC620_HH

#include <array>
#include <cstdint>
#include <deque>

#include "mem/hierarchy.hh"
#include "trace/trace.hh"
#include "uarch/bpred.hh"
#include "uarch/machine_config.hh"
#include "uarch/sched.hh"
#include "util/stats.hh"

namespace lvplib::uarch
{

/** Timing statistics for one out-of-order run. */
struct OooStats
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** Figure 7: verification latency (cycles after dispatch) of
     *  correctly-predicted loads. Buckets 0..7, overflow = ">7". */
    Histogram verifyLatency{8};

    /** Figure 8: reservation-station operand-wait cycles per FU. */
    std::array<std::uint64_t, isa::NumFuTypes> rsWaitCycles{};
    std::array<std::uint64_t, isa::NumFuTypes> rsWaitInsts{};

    /** Figure 9: distinct cycles with an L1 bank conflict. */
    std::uint64_t bankConflictCycles = 0;

    std::uint64_t l1Misses = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t constMissesAvoided = 0; ///< misses cancelled by the CVU
    std::uint64_t branchMispredicts = 0;
    std::uint64_t predictedLoads = 0;
    std::uint64_t reissuedInsts = 0; ///< consumers redone after mispredict

    double ipc() const;

    /** Mean RS wait for one FU type, in cycles. */
    double rsWaitMean(isa::FuType t) const;

    /** Bank-conflict cycles as a percentage of all cycles. */
    double bankConflictPct() const;

    /** Field-wise equality (group-sharded vs serial sweeps). */
    bool operator==(const OooStats &o) const = default;
};

/** The out-of-order machine model; consumes an annotated trace. */
class Ppc620Model : public trace::TraceSink
{
  public:
    /**
     * @param config 620 or 620+ parameters.
     * @param lvp_enabled When false, load-prediction annotations in
     * the trace are ignored (the baseline machine).
     */
    Ppc620Model(const Ppc620Config &config, bool lvp_enabled);

    void consume(const trace::TraceRecord &rec) override;

    void
    consumeBatch(std::span<const trace::TraceRecord> recs) override
    {
        // Qualified call: one virtual dispatch per batch, not per
        // record.
        for (const trace::TraceRecord &rec : recs)
            Ppc620Model::consume(rec);
    }

    void finish() override;

    const OooStats &stats() const { return stats_; }
    const Ppc620Config &config() const { return config_; }

  private:
    /** Per-register producer timing, the OoO dependence scoreboard. */
    struct RegInfo
    {
        Cycle early = 0;  ///< first (possibly speculative) value
        Cycle good = 0;   ///< first correct value
        Cycle verify = 0; ///< pending verification time (0 = none)
    };

    struct StoreEntry
    {
        Addr addr;
        unsigned size;
        Cycle ready; ///< cycle its data can forward to a younger load
    };

    Cycle fetchCycle();
    Cycle dispatchCycle(const isa::Instruction &inst, Cycle fetch);
    Cycle completeCycle(Cycle eligible, Cycle dispatch);
    Cycle loadDataReturn(const trace::TraceRecord &rec, Cycle issue,
                         trace::PredState pred);

    Ppc620Config config_;
    bool lvp_;
    mem::MemHierarchy mem_;
    BranchPredictor bpred_;
    std::array<FuBank, isa::NumFuTypes> fus_;
    std::array<ResourcePool, isa::NumFuTypes> rsPools_;
    ResourcePool gprRename_;
    ResourcePool fprRename_;
    ResourcePool completionBuf_;
    BankTracker banks_;

    // Front end.
    Cycle nextFetch_ = 0;
    unsigned fetchCount_ = 0;
    std::deque<Cycle> fetchBufDispatch_; ///< dispatch cycles, buffer-sized

    // Dispatch / completion bandwidth.
    SlotCounter dispatchSlots_;
    SlotCounter memDispatchSlots_;
    SlotCounter completeSlots_;
    Cycle lastDispatch_ = 0;
    Cycle lastComplete_ = 0;

    // Dependence tracking.
    std::array<RegInfo, isa::NumRegs> regs_{};
    std::deque<StoreEntry> storeQueue_;

    // Outstanding-miss (MSHR) end times.
    std::deque<Cycle> missEnds_;

    OooStats stats_;
};

} // namespace lvplib::uarch

#endif // LVPLIB_UARCH_PPC620_HH
