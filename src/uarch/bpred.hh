/**
 * @file
 * Trace-driven branch prediction: a BHT of 2-bit counters for
 * conditional-branch direction plus a BTB for indirect-branch targets,
 * patterned after the PowerPC 620's BHT/BTAC front end. The timing
 * models use it to decide whether fetch proceeds smoothly or stalls
 * until branch resolution.
 */

#ifndef LVPLIB_UARCH_BPRED_HH
#define LVPLIB_UARCH_BPRED_HH

#include <compare>
#include <cstdint>
#include <vector>

#include "trace/trace.hh"
#include "util/sat_counter.hh"
#include "util/types.hh"

namespace lvplib::uarch
{

/** Branch-predictor parameters. */
struct BpredConfig
{
    std::uint32_t bhtEntries = 2048; ///< 2-bit direction counters
    std::uint32_t btbEntries = 256;  ///< indirect-target buffer

    /**
     * Extension: gshare-style two-level prediction (the paper cites
     * Yeh & Patt). When nonzero, this many global-history bits are
     * XORed into the BHT index; 0 gives the 620's plain bimodal BHT.
     */
    std::uint32_t gshareBits = 0;

    auto operator<=>(const BpredConfig &) const = default;
};

class BranchPredictor
{
  public:
    /**
     * @param bht_entries Direction-predictor entries (2-bit counters).
     * @param btb_entries Target-buffer entries (direct-mapped).
     */
    explicit BranchPredictor(std::uint32_t bht_entries = 2048,
                             std::uint32_t btb_entries = 256);

    /** Construct from a config (supports the gshare extension). */
    explicit BranchPredictor(const BpredConfig &config);

    /**
     * Predict the branch in @p rec, train the predictor with the
     * actual outcome, and report whether the front end predicted
     * correctly (direction AND target).
     */
    bool predict(const trace::TraceRecord &rec);

    std::uint64_t branches() const { return branches_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Misprediction ratio in percent. */
    double mispredictRate() const;

  private:
    std::uint32_t bhtIndex(Addr pc) const;

    std::uint32_t bhtMask_;
    std::uint32_t btbMask_;
    std::uint32_t gshareBits_ = 0;
    std::uint32_t ghr_ = 0; ///< global direction history
    std::vector<SatCounter> bht_;
    std::vector<Addr> btbTarget_;
    std::vector<bool> btbValid_;
    std::uint64_t branches_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace lvplib::uarch

#endif // LVPLIB_UARCH_BPRED_HH
