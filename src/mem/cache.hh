/**
 * @file
 * A generic set-associative cache model with LRU replacement. Only
 * tags are modeled (the functional interpreter holds the data); the
 * timing models query hit/miss and latency.
 */

#ifndef LVPLIB_MEM_CACHE_HH
#define LVPLIB_MEM_CACHE_HH

#include <compare>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace lvplib::mem
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;

    std::uint32_t numSets() const { return sizeBytes / (assoc * lineBytes); }
    void validate() const;

    auto operator<=>(const CacheConfig &) const = default;
};

/** Tag-only set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing @p addr, allocating it on a miss
     * (write-allocate, fetch-on-write).
     *
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Hit/miss check without any state change. */
    bool probe(Addr addr) const;

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    const CacheConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }

    /** Miss ratio in percent. */
    double missRate() const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0; ///< LRU timestamp
    };

    std::uint32_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheConfig config_;
    std::uint32_t setShift_;   ///< log2(lineBytes)
    std::uint32_t setMask_;
    std::vector<Line> lines_;  ///< sets * assoc, row-major by set
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace lvplib::mem

#endif // LVPLIB_MEM_CACHE_HH
