/**
 * @file
 * 3-way skewed-associative stride prediction (the CVP-1 reference
 * stride predictor's table organization). A direct-mapped stride
 * table loses its hottest entries to pc aliasing; a skewed table
 * gives each way its own index hash, so two loads that collide in
 * one way almost never collide in the others. Tags make the hit
 * definitive, and an SVP-style confidence counter with a low
 * replacement threshold keeps a proven stride from being stolen by
 * a single noisy interleaving.
 */

#ifndef LVPLIB_CORE_SKEW_STRIDE_UNIT_HH
#define LVPLIB_CORE_SKEW_STRIDE_UNIT_HH

#include <cstdint>
#include <vector>

#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace lvplib::core
{

/**
 * Skewed-associative stride unit. No LCT (per-entry confidence
 * gates instead) and no CVU, so stats().constants stays 0.
 */
class SkewStrideUnit : public ValuePredictor
{
  public:
    explicit SkewStrideUnit(const SkewStrideConfig &config);

    trace::PredState onLoad(Addr pc, Addr addr, Word value,
                            unsigned size) override;
    void onStore(Addr addr, unsigned size) override;

    const SkewStrideConfig &config() const { return config_; }
    const LvpStats &stats() const override { return stats_; }

    void reset() override;

    std::uint64_t bitBudget() const override;
    std::any snapshotState() const override;
    void restoreState(const std::any &s) override;

    struct Entry
    {
        Word last = 0;
        SWord stride = 0;
        std::uint16_t tag = 0;
        SatCounter conf{3};
        bool valid = false;
    };

    /** Checkpointable predictor state (stats excluded): all ways. */
    struct Snapshot
    {
        std::vector<std::vector<Entry>> ways;
    };

    /** Capture the unit's replayable state (stats excluded). */
    Snapshot snapshot() const;

    /** Restore state captured by snapshot(); stats are untouched. */
    void restore(const Snapshot &s);

  private:
    std::uint32_t index(Addr pc, unsigned way) const;
    std::uint16_t tagOf(Addr pc, unsigned way) const;

    SkewStrideConfig config_;
    std::uint32_t mask_;
    std::uint16_t tagMask_;
    unsigned logEntries_;
    std::vector<std::vector<Entry>> ways_;
    LvpStats stats_;
};

extern template class Annotator<SkewStrideUnit>;

} // namespace lvplib::core

#endif // LVPLIB_CORE_SKEW_STRIDE_UNIT_HH
