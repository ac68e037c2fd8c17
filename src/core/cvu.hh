/**
 * @file
 * The Constant Verification Unit (paper Section 3.3).
 *
 * A small fully-associative table (CAM) of (data address, LVPT index)
 * pairs. When a constant-classified load executes, its data address
 * concatenated with its LVPT index is searched in the CAM; a match
 * guarantees the LVPT entry's value is coherent with main memory, so
 * the load need not access the memory hierarchy at all. Entries are
 * invalidated by any store whose address range overlaps, and by LVPT
 * displacement (an aliasing load overwriting the entry's value).
 *
 * As a design-space ablation the unit can also be built
 * set-associative (ways > 0): entries then live in the set selected
 * by their address's 8-byte granule, trading the full CAM's cost for
 * possible conflict evictions. Coherence is preserved: a store probes
 * every set its byte range can overlap.
 */

#ifndef LVPLIB_CORE_CVU_HH
#define LVPLIB_CORE_CVU_HH

#include <cstdint>
#include <vector>

#include "core/lct.hh"
#include "core/value_predictor.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace lvplib::core
{

class Cvu
{
  public:
    /**
     * @param entries Total capacity; 0 disables the unit.
     * @param ways Associativity; 0 (the paper's design) means fully
     * associative. Otherwise entries/ways must be a power of two.
     */
    explicit Cvu(std::uint32_t entries, std::uint32_t ways = 0);

    /**
     * CAM search for a constant load: true when (addr, lvpt_index) is
     * present, meaning the LVPT value is guaranteed coherent. A hit
     * refreshes the entry's LRU position.
     */
    bool
    lookup(Addr addr, std::uint32_t lvpt_index)
    {
        return size_ != 0 && lookupSet(addr, lvpt_index);
    }

    /**
     * Install a verified constant. Called after a constant-classified
     * load missed the CAM, fell back to the memory hierarchy, and its
     * prediction verified correct. Evicts the LRU entry (of the set,
     * when set-associative) when full.
     *
     * @param size Access size in bytes, retained so stores can detect
     * partial overlap.
     */
    void insert(Addr addr, std::uint32_t lvpt_index, unsigned size);

    /**
     * Store-side invalidation: remove every entry whose [addr,
     * addr+size) range overlaps the store's range (paper: "all
     * matching entries are removed from the CVU").
     *
     * @return Number of entries invalidated.
     */
    unsigned
    storeInvalidate(Addr store_addr, unsigned store_size)
    {
        // Most stores find the unit empty: answer them inline.
        return size_ == 0 ? 0 : purgeStore(store_addr, store_size);
    }

    /**
     * LVPT-displacement invalidation: the LVPT entry at @p lvpt_index
     * changed its MRU value, so any constant verified against it would
     * be stale. Removes every entry with that index.
     *
     * @return Number of entries invalidated.
     */
    unsigned
    displaceInvalidate(std::uint32_t lvpt_index)
    {
        return size_ == 0 ? 0 : purgeIndex(lvpt_index);
    }

    /**
     * Fault injection (lvpchaos): evict entry number (@p which mod
     * size()), modelling a parity-detected corrupt CAM entry. A real
     * CVU must treat an entry that fails parity as absent — anything
     * else could vouch for a stale value — so the fault only costs a
     * verified constant, never correctness.
     *
     * @return false when the unit is empty (nothing to evict).
     */
    bool corruptEvict(std::uint64_t which);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t ways() const { return ways_; }
    std::size_t size() const { return size_; }
    bool enabled() const { return capacity_ != 0; }

    /**
     * Architected state: each CAM entry holds a data address, the
     * owning prediction-table index (wide enough for @p indexEntries
     * entries), an access size (4 bits cover 1..8 bytes) and a valid
     * bit.
     */
    std::uint64_t bitBudget(std::uint32_t indexEntries) const;

  private:
    struct Entry
    {
        Addr addr;
        std::uint32_t lvptIndex;
        unsigned size;
    };

    /** Set holding entries whose base address is @p addr. */
    std::size_t setOf(Addr addr) const;

    /** First slot of set @p s. */
    Entry *slots(std::size_t s) { return &slots_[s * ways_]; }

    bool lookupSet(Addr addr, std::uint32_t lvpt_index);
    unsigned purgeStore(Addr store_addr, unsigned store_size);
    unsigned purgeIndex(std::uint32_t lvpt_index);

    /** Remove every entry of set @p s that @p match selects, keeping
     *  the rest in MRU order. @return the number removed. */
    template <typename Match>
    unsigned purge(std::size_t s, Match match);

    std::uint32_t capacity_;
    std::uint32_t ways_;     ///< entries per set (capacity_ when FA)
    std::uint32_t numSets_;  ///< 1 when fully associative
    std::uint32_t size_ = 0; ///< live entries over all sets
    /** numSets_ x ways_ slots: set s holds its fill_[s] live entries
     *  MRU first from slot s * ways_. A fully-associative search is a
     *  linear scan, faithful to a CAM (capacities are small: 32-128);
     *  nothing is allocated after construction. */
    std::vector<Entry> slots_;
    std::vector<std::uint32_t> fill_;
};

/**
 * The LCT+CVU gate of paper Section 3.4, written once for the units
 * that own a CVU. A Constant-class load that hits the CVU is a
 * verified constant. Any other load the LCT lets through verifies
 * against memory (a constant that missed the CVU is demoted to
 * predictable status, paper Section 3.3), and a correct one of
 * Constant class is installed in the CVU. @p cvuEligible narrows
 * which Constant-class loads the CVU serves at all: the stride unit
 * passes its zero-stride condition. @p idx is the load's
 * prediction-table index. Counts the load into @p stats through
 * LvpStats::record and returns its PredState.
 */
inline trace::PredState
cvuGate(LvpStats &stats, Cvu &cvu, LoadClass cls, bool cvuEligible,
        Addr addr, std::uint32_t idx, unsigned size, bool wouldBeCorrect)
{
    const bool constant =
        cls == LoadClass::Constant && cvuEligible && cvu.enabled();
    const bool cvuHit = constant && cvu.lookup(addr, idx);
    const trace::PredState state = stats.record(
        wouldBeCorrect, cls != LoadClass::DontPredict, cvuHit);
    if (constant && !cvuHit && wouldBeCorrect) {
        cvu.insert(addr, idx, size);
        ++stats.cvuInsertions;
    }
    return state;
}

} // namespace lvplib::core

#endif // LVPLIB_CORE_CVU_HH
