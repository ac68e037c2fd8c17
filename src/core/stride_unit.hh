/**
 * @file
 * Stride value prediction — the paper's future-work item "moving
 * beyond history-based prediction to computed predictions through
 * techniques like value stride detection" (Section 7), implemented as
 * an alternative prediction unit so it can be compared head-to-head
 * with the history-based LVP unit.
 *
 * Each table entry tracks the last value and the last observed delta;
 * a confidence counter rewards consistent deltas. The prediction is
 * last + stride, which degenerates to last-value prediction when the
 * stride is zero. Constant verification through the CVU applies only
 * to zero-stride (i.e. genuinely constant) entries.
 */

#ifndef LVPLIB_CORE_STRIDE_UNIT_HH
#define LVPLIB_CORE_STRIDE_UNIT_HH

#include <cstdint>
#include <vector>

#include "core/cvu.hh"
#include "core/lct.hh"
#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace lvplib::core
{

/**
 * Stride-based load value prediction unit. Interface mirrors LvpUnit
 * so the two can be swapped behind the same Annotator.
 */
class StrideLvpUnit : public ValuePredictor
{
  public:
    explicit StrideLvpUnit(const StrideConfig &config);

    /** Process one dynamic load; returns its prediction state. */
    trace::PredState onLoad(Addr pc, Addr addr, Word value,
                            unsigned size) override;

    /** Process one dynamic store (CVU coherence). */
    void onStore(Addr addr, unsigned size) override;

    const StrideConfig &config() const { return config_; }
    const LvpStats &stats() const override { return stats_; }

    void reset() override;

    std::uint64_t bitBudget() const override;
    std::any snapshotState() const override;
    void restoreState(const std::any &s) override;

  private:
    struct Entry
    {
        Word last = 0;
        SWord stride = 0;
        SatCounter conf{2};
        bool valid = false;
    };

  public:
    /** Checkpointable predictor state (stats excluded), mirroring
     *  LvpUnit::Snapshot for session resume. */
    struct Snapshot
    {
        std::vector<Entry> table;
        Lct lct;
        Cvu cvu;
    };

    /** Capture the unit's replayable state (stats excluded). */
    Snapshot snapshot() const;

    /** Restore state captured by snapshot(); stats are untouched. */
    void restore(const Snapshot &s);

  private:

    std::uint32_t index(Addr pc) const;

    /** The value this entry would predict right now. */
    Word predictionOf(const Entry &e) const;

    StrideConfig config_;
    std::uint32_t mask_;
    std::vector<Entry> table_;
    Lct lct_;
    Cvu cvu_;
    LvpStats stats_;
};

extern template class Annotator<StrideLvpUnit>;

} // namespace lvplib::core

#endif // LVPLIB_CORE_STRIDE_UNIT_HH
