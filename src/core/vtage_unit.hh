/**
 * @file
 * VTAGE-style tagged context value prediction (Perais & Seznec,
 * HPCA 2014; the idiom here follows the CVP-1 reference predictor).
 * Where FCM chains per-load value histories, VTAGE indexes a series
 * of tagged banks with geometrically longer slices of the global
 * branch history: bank n hashes the pc with the last len(n) branch
 * outcomes, so the same static load predicts differently down
 * different control paths. The longest-history bank that tag-matches
 * wins; an untagged last-value base bank backstops the misses.
 *
 * Two CVP-bred safeguards gate predictions: a per-entry saturating
 * confidence counter that must be fully saturated before the entry
 * may predict, and a misprediction-burst throttle that suppresses
 * all predictions for a window of loads after any issued
 * misprediction — bursts cluster on context changes, where every
 * bank is cold at once.
 */

#ifndef LVPLIB_CORE_VTAGE_UNIT_HH
#define LVPLIB_CORE_VTAGE_UNIT_HH

#include <cstdint>
#include <vector>

#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace lvplib::core
{

/**
 * VTAGE unit. No LCT (the per-entry confidence counters replace it)
 * and no CVU (a context prediction has no single coherent memory
 * home), so stats().constants stays 0.
 */
class VtageUnit : public ValuePredictor
{
  public:
    explicit VtageUnit(const VtageConfig &config);

    trace::PredState onLoad(Addr pc, Addr addr, Word value,
                            unsigned size) override;
    void onBranch(bool taken) override;

    const VtageConfig &config() const { return config_; }

    std::uint64_t bitBudget() const override;
    std::any snapshotState() const override { return *this; }
    void
    restoreState(const std::any &s) override
    {
        restoreFrom<VtageUnit>(s);
    }

    struct Entry
    {
        Word value = 0;
        std::uint16_t tag = 0;
        SatCounter conf{3};
        bool valid = false;
    };

  private:
    /** Fold the low historyBits(b) of the history into a hash. */
    Word foldedHistory(unsigned b) const;

    std::uint32_t baseIndex(Addr pc) const;
    std::uint32_t bankIndex(Addr pc, unsigned b) const;
    std::uint16_t bankTag(Addr pc, unsigned b) const;

    VtageConfig config_;
    std::uint32_t baseMask_;
    std::uint32_t bankMask_;
    std::uint16_t tagMask_;
    std::vector<Entry> base_;
    std::vector<std::vector<Entry>> banks_;
    Word history_ = 0;          ///< global branch outcome history
    std::uint64_t sinceMisp_ = 0; ///< loads since last issued mispredict
};

extern template class Annotator<VtageUnit>;

} // namespace lvplib::core

#endif // LVPLIB_CORE_VTAGE_UNIT_HH
