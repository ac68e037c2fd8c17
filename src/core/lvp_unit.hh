/**
 * @file
 * The Load Value Prediction Unit: LVPT + LCT + CVU composed per paper
 * Section 3.4, plus the statistics behind Tables 3 and 4. Also names
 * the LvpAnnotator trace-pipeline stage, which annotates every dynamic
 * load with its PredState — the paper's phase-2 simulator, which
 * passes only two bits of state per load into the timing models.
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

/** Aggregate statistics for one LVP Unit over one trace. */
struct LvpStats
{
    std::uint64_t loads = 0;        ///< dynamic loads processed
    std::uint64_t noPred = 0;       ///< LCT said "don't predict"
    std::uint64_t incorrect = 0;    ///< predicted, wrong
    std::uint64_t correct = 0;      ///< predicted, verified via memory
    std::uint64_t constants = 0;    ///< verified by the CVU (no access)

    // Classification confusion matrix (Table 3). "Actually
    // predictable" means the LVPT's prediction matched this dynamic
    // load's value.
    std::uint64_t actualUnpred = 0;      ///< dynamic loads LVPT got wrong
    std::uint64_t actualPred = 0;        ///< dynamic loads LVPT got right
    std::uint64_t unpredIdentified = 0;  ///< ...and LCT said don't-predict
    std::uint64_t predIdentified = 0;    ///< ...and LCT said predict/const

    std::uint64_t cvuInsertions = 0;
    std::uint64_t cvuStoreInvalidations = 0;
    std::uint64_t cvuDisplaceInvalidations = 0;
    std::uint64_t cvuStaleHits = 0; ///< must stay 0: coherence property

    /**
     * Accumulate @p o into this. Every field is a plain event count,
     * so stats from consecutive replay segments sum to exactly the
     * stats of one serial pass — the property a resumed lvp-serve
     * session's final stats depend on.
     */
    LvpStats &operator+=(const LvpStats &o);

    /** Field-wise equality: the byte-identity check the serving path
     *  (lvp-serve sessions vs the offline pipeline) is verified by. */
    bool operator==(const LvpStats &o) const = default;

    /** Table 3 column: % of unpredictable loads identified as such. */
    double unpredHitRate() const;

    /** Table 3 column: % of predictable loads identified as such. */
    double predHitRate() const;

    /** Table 4: constant loads as a fraction of all dynamic loads. */
    double constantRate() const;

    /** Fraction of loads predicted (correct+incorrect+constant). */
    double predictionRate() const;

    /** Fraction of issued predictions that were correct. */
    double accuracy() const;
};

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
    const LvpStats &stats() const override { return stats_; }

    /** Component access for tests and diagnostics. */
    const Lvpt &lvpt() const { return lvpt_; }
    const Lct &lct() const { return lct_; }
    const Cvu &cvu() const { return cvu_; }

    /** Clear tables and statistics. */
    void reset() override;

    std::uint64_t bitBudget() const override;
    std::any snapshotState() const override;
    void restoreState(const std::any &s) override;

    /**
     * Checkpointable predictor state: everything a later onLoad /
     * onStore / onBranch outcome depends on — the tables, the branch
     * history register, and the chaos fault-stream position — but NOT
     * the statistics, which are additive per segment and stay with
     * each replay slice. Restoring a snapshot into a fresh unit of
     * the same config and replaying records [i, j) reproduces bit for
     * bit the table state and per-segment stats a serial replay shows
     * across that window.
     */
    struct Snapshot
    {
        Lvpt lvpt;
        Lct lct;
        Cvu cvu;
        Word bhr = 0;
        std::uint64_t chaosLoads = 0;
    };

    /** Capture the unit's replayable state (stats excluded). */
    Snapshot snapshot() const;

    /** Restore state captured by snapshot(); stats are untouched. */
    void restore(const Snapshot &s);

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
    LvpStats stats_;
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
