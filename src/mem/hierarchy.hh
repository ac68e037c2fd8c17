/**
 * @file
 * A two-level memory hierarchy latency model with a banked L1 data
 * cache, used by both timing models. The L1 hit latency is part of
 * the load's result latency (paper Table 5); this model returns the
 * EXTRA cycles a miss adds, plus the bank the access maps to so the
 * 620 model can detect bank conflicts (paper Section 6.5).
 */

#ifndef LVPLIB_MEM_HIERARCHY_HH
#define LVPLIB_MEM_HIERARCHY_HH

#include <compare>
#include <cstdint>

#include "mem/cache.hh"
#include "util/types.hh"

namespace lvplib::mem
{

/** Parameters for the full hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1{32 * 1024, 8, 64}; ///< 620 default: 32K 8-way
    CacheConfig l2{1024 * 1024, 8, 64};
    std::uint32_t banks = 2;          ///< L1 banks, a power of two
                                      ///< (620: dual-banked)
    std::uint32_t l2Latency = 8;      ///< extra cycles for an L1 miss/L2 hit
    std::uint32_t memLatency = 40;    ///< extra cycles for an L2 miss

    /** The 620/620+ hierarchy (32K 8-way L1, dual-banked). */
    static HierarchyConfig ppc620();

    /** The 21164 hierarchy (8K direct-mapped L1, dual-ported). */
    static HierarchyConfig alpha21164();

    auto operator<=>(const HierarchyConfig &) const = default;
};

/** Outcome of one hierarchy access. */
struct AccessResult
{
    bool l1Hit = false;
    bool l2Hit = false;       ///< meaningful only when !l1Hit
    std::uint32_t extraLatency = 0; ///< cycles beyond the L1-hit latency
    std::uint32_t bank = 0;   ///< L1 bank this access maps to
};

class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyConfig &config);

    /** Perform (and record) one load or store access. */
    AccessResult access(Addr addr);

    /**
     * CVU-cancelled access: touch the L1 line (refresh LRU) when
     * present but do NOT fill on a miss and do NOT consult the L2 —
     * the paper's CVU match "cancels the subsequent retry or cache
     * miss".
     *
     * @return true when the line was present in the L1.
     */
    bool touchIfPresent(Addr addr);

    /** Bank an address maps to, without accessing. */
    std::uint32_t bank(Addr addr) const;

    const HierarchyConfig &config() const { return config_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

  private:
    HierarchyConfig config_;
    Cache l1_;
    Cache l2_;
    // Banks interleave on line granularity: bank = line % banks.
    std::uint32_t bankShift_; ///< log2(l1.lineBytes)
    std::uint32_t bankMask_;  ///< banks - 1
};

} // namespace lvplib::mem

#endif // LVPLIB_MEM_HIERARCHY_HH
