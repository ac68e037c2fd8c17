/**
 * @file
 * Trace-driven timing model of the Alpha AXP 21164 (paper Section
 * 4.2): a 4-wide, strictly in-order, deeply pipelined machine with
 * two integer pipes (which serve as the two memory ports of the
 * dual-ported L1) and two floating-point pipes.
 *
 * Deviations from the real 21164, exactly as the paper made them:
 *  - the MAF is omitted, so L1 misses block subsequent memory ops
 *    (baseline and LVP configurations alike);
 *  - LVP configurations add a compare stage and a reissue buffer:
 *    a misprediction squashes the (up to 8) in-flight instructions
 *    and redispatches them with a single-cycle penalty;
 *  - loads that miss the L1 cannot be predicted (the machine returns
 *    to the non-speculative state with no penalty), EXCEPT constants
 *    verified by the CVU, which complete without accessing the cache
 *    at all — a zero-cycle load even on what would have been a miss.
 */

#ifndef LVPLIB_UARCH_ALPHA21164_HH
#define LVPLIB_UARCH_ALPHA21164_HH

#include <array>
#include <cstdint>

#include "mem/hierarchy.hh"
#include "trace/trace.hh"
#include "uarch/bpred.hh"
#include "uarch/machine_config.hh"
#include "uarch/sched.hh"
#include "util/stats.hh"

namespace lvplib::uarch
{

/** Timing statistics for one in-order run. */
struct InOrderStats
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t predictedLoads = 0; ///< predictions actually used
    std::uint64_t droppedPredictions = 0; ///< abandoned due to L1 miss
    std::uint64_t constLoads = 0;     ///< completed via the CVU
    std::uint64_t squashes = 0;       ///< misprediction squashes
    std::uint64_t branchMispredicts = 0;

    double ipc() const;

    /** L1 misses per instruction, in percent (paper Section 6.1). */
    double missRatePerInst() const;

    /** Field-wise equality (group-sharded vs serial sweeps). */
    bool operator==(const InOrderStats &o) const = default;
};

/** The in-order machine model; consumes an annotated trace. */
class Alpha21164Model : public trace::TraceSink
{
  public:
    Alpha21164Model(const AlphaConfig &config, bool lvp_enabled);

    void consume(const trace::TraceRecord &rec) override;

    void
    consumeBatch(std::span<const trace::TraceRecord> recs) override
    {
        // Qualified call: one virtual dispatch per batch, not per
        // record.
        for (const trace::TraceRecord &rec : recs)
            Alpha21164Model::consume(rec);
    }

    void finish() override;

    const InOrderStats &stats() const { return stats_; }
    const AlphaConfig &config() const { return config_; }

  private:
    AlphaConfig config_;
    bool lvp_;
    mem::MemHierarchy mem_;
    BranchPredictor bpred_;
    FuBank intPipes_;
    FuBank fpPipes_;
    SlotCounter dispatchSlots_;

    /** Cycle each register's value is available to a dispatcher. */
    std::array<Cycle, isa::NumRegs> regReady_{};

    Cycle lastDispatch_ = 0;
    Cycle cacheBusyUntil_ = 0; ///< blocking-miss fill in progress
    Cycle stallUntil_ = 0;     ///< squash/branch redirect barrier

    InOrderStats stats_;
};

} // namespace lvplib::uarch

#endif // LVPLIB_UARCH_ALPHA21164_HH
