/**
 * @file
 * The Load Value Prediction Table (paper Section 3.1).
 *
 * The LVPT associates a load instruction with the value(s) it loaded
 * previously. It is indexed by the low-order bits of the load's
 * instruction address and is NOT tagged, so both constructive and
 * destructive interference occur between loads that alias to the same
 * entry — exactly as in the paper. Each entry holds up to
 * historyDepth unique values in LRU order.
 */

#ifndef LVPLIB_CORE_LVPT_HH
#define LVPLIB_CORE_LVPT_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "util/types.hh"
#include "util/value_history.hh"

namespace lvplib::core
{

/**
 * Where a load's actual value sits in the history of its LVPT entry:
 * what one scan of the entry learns, enough both to judge the
 * prediction and to train the entry afterwards without scanning again.
 */
struct LvptProbe
{
    std::uint32_t idx = 0; ///< table index
    std::uint32_t pos = 0; ///< value's position, MRU first; depth if absent
    bool tagHit = true;    ///< false: another static load owns the entry
};

class Lvpt
{
  public:
    /**
     * @param entries Number of entries (power of two).
     * @param depth Values retained per entry (history depth).
     * @param tagged Ablation knob: when true, each entry remembers
     * which static load owns it and a mismatching lookup misses
     * instead of interfering (the paper's design is untagged).
     */
    Lvpt(std::uint32_t entries, std::uint32_t depth,
         bool tagged = false);

    /** Table index for a load at @p pc. */
    std::uint32_t
    index(Addr pc) const
    {
        // Instruction addresses are word-aligned; drop the alignment
        // bits before masking so consecutive loads use consecutive
        // entries.
        return static_cast<std::uint32_t>(pc / isa::layout::InstBytes) &
               mask_;
    }

    /**
     * Find @p value in the history of the entry for @p pc. A tag miss
     * (tagged mode only) finds nothing.
     */
    LvptProbe
    probe(Addr pc, Word value) const
    {
        const std::uint32_t idx = index(pc);
        if (!tagMatches(idx, pc))
            return {idx, depth_, false};
        return {idx, table_.find(idx, value), true};
    }

    /**
     * True when the probed value is in the entry's history — for
     * history depths greater than one, the paper's hypothetical
     * perfect selection mechanism; at depth one, a correct MRU
     * prediction.
     */
    bool hit(const LvptProbe &p) const { return p.pos != depth_; }

    /**
     * Record the actual loaded @p value for the load at @p pc, which
     * probe(pc, value) located at @p p (no table change in between).
     *
     * @return true when the update changed the entry's MRU value
     * (the signal the CVU uses to invalidate constants whose LVPT
     * value was displaced by an aliasing load).
     */
    bool
    update(const LvptProbe &p, Addr pc, Word value)
    {
        if (!p.tagHit) {
            // A different static load owns the entry: evict it.
            table_.clear(p.idx);
            tags_[p.idx] = pc;
        }
        table_.promote(p.idx, p.pos, value);
        return p.pos != 0;
    }

    std::uint32_t entries() const { return mask_ + 1; }
    std::uint32_t depth() const { return depth_; }
    bool tagged() const { return tagged_; }

    /**
     * Fault injection (lvpchaos): XOR @p xorMask into the MRU value of
     * entry @p idx, modelling a bit flip in the value store. The caller
     * must displace-invalidate the CVU for @p idx afterwards, exactly
     * as hardware would on any MRU value change.
     *
     * @return false when the entry holds no values (nothing to flip).
     */
    bool corruptMruValue(std::uint32_t idx, Word xorMask);

    /**
     * Architected state: per entry, depth 64-bit values with a valid
     * bit each, LRU ordering bits when depth > 1, and a full tag in
     * the tagged ablation.
     */
    std::uint64_t bitBudget() const;

  private:
    /** Tag check for entry @p idx; always true untagged. */
    bool
    tagMatches(std::uint32_t idx, Addr pc) const
    {
        return !tagged_ || tags_[idx] == pc;
    }

    std::uint32_t mask_;
    std::uint32_t depth_;
    bool tagged_;
    ValueHistoryTable table_;
    std::vector<Addr> tags_;
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_LVPT_HH
