/**
 * @file
 * A flat table of per-entry value histories, used by the LVPT (paper
 * Section 2: "the values ... stored at each entry are replaced with an
 * LRU policy") and by the value-locality profilers behind Figures 1
 * and 2.
 *
 * Every entry keeps up to depth unique values, most-recently-used
 * first. All entries live in one array of entries x depth values plus
 * one count per entry, so a lookup touches one contiguous run of
 * values and nothing is allocated after construction.
 */

#ifndef LVPLIB_UTIL_VALUE_HISTORY_HH
#define LVPLIB_UTIL_VALUE_HISTORY_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace lvplib
{

class ValueHistoryTable
{
  public:
    /** Largest supported history depth (counts are one byte). */
    static constexpr std::uint32_t MaxDepth = 255;

    /**
     * @param entries Number of independent histories.
     * @param depth Values retained per entry, [1, MaxDepth].
     */
    ValueHistoryTable(std::uint32_t entries, std::uint32_t depth)
        : depth_(depth),
          values_(std::size_t{entries} * depth),
          counts_(entries)
    {
        lvp_assert(depth >= 1 && depth <= MaxDepth, "depth=%u", depth);
    }

    std::uint32_t depth() const { return depth_; }

    /** Number of values entry @p e holds. */
    std::uint32_t size(std::uint32_t e) const { return counts_[e]; }

    bool empty(std::uint32_t e) const { return counts_[e] == 0; }

    /** Most-recently-used value of entry @p e; undefined when empty. */
    Word mru(std::uint32_t e) const { return values_[base(e)]; }

    /** Mutable MRU value (fault injection); undefined when empty. */
    Word &mru(std::uint32_t e) { return values_[base(e)]; }

    /**
     * Position of @p v in entry @p e's history (0 = MRU), or depth()
     * when absent. Pass the result to promote() to record the use
     * without scanning again.
     */
    std::uint32_t
    find(std::uint32_t e, Word v) const
    {
        const Word *h = &values_[base(e)];
        const std::uint32_t n = counts_[e];
        for (std::uint32_t i = 0; i < n; ++i) {
            if (h[i] == v)
                return i;
        }
        return depth_;
    }

    /**
     * Record a use of @p v, which find(e, v) located at @p pos: move it
     * to the MRU position, or insert it there (evicting the LRU value
     * of a full entry) when @p pos is depth().
     */
    void
    promote(std::uint32_t e, std::uint32_t pos, Word v)
    {
        Word *h = &values_[base(e)];
        std::uint8_t &n = counts_[e];
        if (pos == depth_) {
            // Absent: shift everything but a full entry's LRU value.
            pos = n < depth_ ? n : depth_ - 1;
            if (n < depth_)
                ++n;
        }
        for (std::uint32_t i = pos; i > 0; --i)
            h[i] = h[i - 1];
        h[0] = v;
    }

    /** Empty entry @p e. */
    void clear(std::uint32_t e) { counts_[e] = 0; }

  private:
    std::size_t
    base(std::uint32_t e) const
    {
        return std::size_t{e} * depth_;
    }

    std::uint32_t depth_;
    std::vector<Word> values_;         ///< entries x depth, MRU first
    std::vector<std::uint8_t> counts_; ///< values held per entry
};

} // namespace lvplib

#endif // LVPLIB_UTIL_VALUE_HISTORY_HH
