/**
 * @file
 * The Load Value Prediction Unit: LVPT + LCT + CVU composed per paper
 * Section 3.4, counting the statistics behind Tables 3 and 4. Also
 * names LvpAnnotator, the Annotator<LvpUnit> stage that stamps each
 * dynamic load's PredState for the sink behind it
 * (core::PredictorAnnotator picks it for an LvpConfig spec).
 */

#ifndef LVPLIB_CORE_LVP_UNIT_HH
#define LVPLIB_CORE_LVP_UNIT_HH

#include <cstdint>

#include "core/config.hh"
#include "core/cvu.hh"
#include "core/lct.hh"
#include "core/lvpt.hh"
#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace lvplib::core
{

/**
 * A complete LVP Unit. Feed it every dynamic load (in program order,
 * with the actual loaded value — this is a trace-driven unit, as in
 * the paper) and every dynamic store (for CVU coherence).
 */
class LvpUnit : public ValuePredictor
{
  public:
    explicit LvpUnit(const LvpConfig &config);

    /**
     * Process one dynamic load and return its prediction state.
     *
     * @param pc Load instruction address.
     * @param addr Effective (data) address.
     * @param value Actual loaded value.
     * @param size Access size in bytes.
     */
    trace::PredState onLoad(Addr pc, Addr addr, Word value,
                            unsigned size) override;

    /** Process one dynamic store (invalidates matching CVU entries). */
    void onStore(Addr addr, unsigned size) override;

    /**
     * Process one dynamic branch outcome. Only used when
     * config.bhrBits > 0 (the branch-history-indexed LVPT extension);
     * a no-op otherwise.
     */
    void onBranch(bool taken) override;

    const LvpConfig &config() const { return config_; }

    /** Component access for tests and diagnostics. */
    const Lvpt &lvpt() const { return lvpt_; }
    const Lct &lct() const { return lct_; }
    const Cvu &cvu() const { return cvu_; }

    std::uint64_t bitBudget() const override;

    /** The copy carries the tables, the branch history register and
     *  the chaos fault-stream position, so a restored chaos-armed
     *  unit injects exactly the faults an uninterrupted one would. */
    std::any snapshotState() const override { return *this; }
    void restoreState(const std::any &s) override { restoreFrom<LvpUnit>(s); }

  private:
    /** LVPT lookup key: the pc, optionally hashed with the BHR. */
    Addr lookupKey(Addr pc) const;

    /** lvpchaos: maybe corrupt predictor state for this load. */
    void injectChaos();

    LvpConfig config_;
    Lvpt lvpt_;
    Lct lct_;
    Cvu cvu_;
    Word bhr_ = 0; ///< global branch history (bhrBits wide)
    std::uint64_t chaosLoads_ = 0; ///< per-unit fault-stream counter
    std::uint64_t chaosKey_ = 0;   ///< streamKey(config_.name)
};

/**
 * Trace-pipeline stage: runs an LvpUnit over the stream, stamps each
 * load's PredState into the record, and forwards everything
 * downstream.
 */
using LvpAnnotator = Annotator<LvpUnit>;
extern template class Annotator<LvpUnit>;

} // namespace lvplib::core

#endif // LVPLIB_CORE_LVP_UNIT_HH
