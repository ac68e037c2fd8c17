#include "mem/cache.hh"

#include <bit>

#include "util/logging.hh"
#include "util/stats.hh"

namespace lvplib::mem
{

void
CacheConfig::validate() const
{
    if (!std::has_single_bit(lineBytes) || lineBytes < 8)
        lvp_fatal("bad lineBytes %u", lineBytes);
    if (assoc == 0 || sizeBytes % (assoc * lineBytes) != 0)
        lvp_fatal("cache size %u not divisible by assoc*line", sizeBytes);
    if (!std::has_single_bit(numSets()))
        lvp_fatal("cache sets (%u) must be a power of two", numSets());
}

Cache::Cache(const CacheConfig &config) : config_(config)
{
    config_.validate();
    setShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setMask_ = config_.numSets() - 1;
    lines_.assign(static_cast<std::size_t>(config_.numSets()) *
                      config_.assoc,
                  Line());
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>(addr >> setShift_) & setMask_;
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> setShift_;
}

bool
Cache::access(Addr addr)
{
    ++clock_;
    const Addr tag = tagOf(addr);
    Line *set = &lines_[static_cast<std::size_t>(setIndex(addr)) *
                        config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = clock_;
            ++hits_;
            return true;
        }
    }
    // Miss: fill an invalid way, else the least-recently-used way.
    Line *victim = &set[0];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        Line &line = set[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const Addr tag = tagOf(addr);
    const Line *set = &lines_[static_cast<std::size_t>(setIndex(addr)) *
                              config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        if (set[w].valid && set[w].tag == tag)
            return true;
    return false;
}

void
Cache::invalidate(Addr addr)
{
    const Addr tag = tagOf(addr);
    Line *set = &lines_[static_cast<std::size_t>(setIndex(addr)) *
                        config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        if (set[w].valid && set[w].tag == tag)
            set[w].valid = false;
}

double
Cache::missRate() const
{
    return pct(misses_, accesses());
}

} // namespace lvplib::mem
