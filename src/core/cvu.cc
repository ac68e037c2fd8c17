#include "core/cvu.hh"

#include <bit>

#include "util/logging.hh"

namespace lvplib::core
{

namespace
{

bool
rangesOverlap(Addr a, unsigned alen, Addr b, unsigned blen)
{
    return a < b + blen && b < a + alen;
}

} // namespace

Cvu::Cvu(std::uint32_t entries, std::uint32_t ways)
    : capacity_(entries), ways_(ways == 0 ? entries : ways),
      numSets_(ways == 0 || entries == 0 ? 1 : entries / ways)
{
    if (entries != 0 && ways != 0) {
        if (entries % ways != 0 ||
            (numSets_ & (numSets_ - 1)) != 0) {
            lvp_fatal("CVU sets (entries %u / ways %u) must be a "
                      "power of two",
                      entries, ways);
        }
    }
    slots_.resize(std::size_t{numSets_} * ways_);
    fill_.assign(numSets_, 0);
}

std::size_t
Cvu::setOf(Addr addr) const
{
    if (numSets_ == 1)
        return 0;
    // Index by the 8-byte granule of the entry's base address.
    return static_cast<std::size_t>((addr >> 3) & (numSets_ - 1));
}

bool
Cvu::lookupSet(Addr addr, std::uint32_t lvpt_index)
{
    const std::size_t s = setOf(addr);
    Entry *set = slots(s);
    for (std::uint32_t i = 0; i < fill_[s]; ++i) {
        if (set[i].addr == addr && set[i].lvptIndex == lvpt_index) {
            const Entry hit = set[i];
            for (; i > 0; --i)
                set[i] = set[i - 1];
            set[0] = hit;
            return true;
        }
    }
    return false;
}

void
Cvu::insert(Addr addr, std::uint32_t lvpt_index, unsigned size)
{
    if (capacity_ == 0)
        return;
    const std::size_t s = setOf(addr);
    Entry *set = slots(s);
    std::uint32_t &n = fill_[s];
    // Refresh an existing identical entry instead of duplicating it;
    // otherwise shift the set down one slot, dropping the LRU entry of
    // a full set.
    std::uint32_t pos = 0;
    while (pos < n &&
           !(set[pos].addr == addr && set[pos].lvptIndex == lvpt_index))
        ++pos;
    if (pos == n) {
        if (n < ways_) {
            ++n;
            ++size_;
        } else {
            pos = n - 1;
        }
    }
    for (; pos > 0; --pos)
        set[pos] = set[pos - 1];
    set[0] = {addr, lvpt_index, size};
}

template <typename Match>
unsigned
Cvu::purge(std::size_t s, Match match)
{
    Entry *set = slots(s);
    std::uint32_t &n = fill_[s];
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!match(set[i]))
            set[kept++] = set[i];
    }
    const unsigned removed = n - kept;
    n = kept;
    size_ -= removed;
    return removed;
}

unsigned
Cvu::purgeStore(Addr store_addr, unsigned store_size)
{
    auto overlaps = [&](const Entry &e) {
        return rangesOverlap(e.addr, e.size, store_addr, store_size);
    };
    if (numSets_ == 1)
        return purge(0, overlaps);
    // An overlapping entry's base address lies in
    // [store_addr - 7, store_addr + store_size): probe exactly the
    // granule-sets that range can touch. Fewer granules than sets map
    // to distinct sets, so none is probed twice.
    Addr lo = (store_addr >= 7 ? store_addr - 7 : 0) >> 3;
    Addr hi = (store_addr + store_size - 1) >> 3;
    std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
    unsigned n = 0;
    if (span >= numSets_) {
        for (std::size_t s = 0; s < numSets_; ++s)
            n += purge(s, overlaps);
        return n;
    }
    for (Addr g = lo; g <= hi; ++g)
        n += purge(static_cast<std::size_t>(g & (numSets_ - 1)),
                   overlaps);
    return n;
}

unsigned
Cvu::purgeIndex(std::uint32_t lvpt_index)
{
    unsigned n = 0;
    for (std::size_t s = 0; s < numSets_; ++s)
        n += purge(s, [&](const Entry &e) {
            return e.lvptIndex == lvpt_index;
        });
    return n;
}

bool
Cvu::corruptEvict(std::uint64_t which)
{
    if (size_ == 0)
        return false;
    // Entries are numbered set by set, MRU first within a set.
    std::size_t target = static_cast<std::size_t>(which % size_);
    for (std::size_t s = 0; s < numSets_; ++s) {
        if (target < fill_[s]) {
            Entry *set = slots(s);
            for (std::size_t i = target; i + 1 < fill_[s]; ++i)
                set[i] = set[i + 1];
            --fill_[s];
            --size_;
            return true;
        }
        target -= fill_[s];
    }
    return false; // unreachable
}

std::uint64_t
Cvu::bitBudget(std::uint32_t indexEntries) const
{
    return std::uint64_t{capacity_} *
           (64 + std::bit_width(indexEntries - 1u) + 4 + 1);
}

} // namespace lvplib::core
