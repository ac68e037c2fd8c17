/**
 * @file
 * Differential fuzzing of the LVP unit's flat tables: seeded random
 * streams drive each one side by side with a brute-force reference,
 * and every answer and every returned count must agree.
 *
 *  - ValueHistoryTable (the LVPT's and the locality profilers' value
 *    histories) vs one std::vector per entry: find, rotate to the
 *    front, insert at the front and drop the LRU value when full.
 *  - Cvu's slot array vs a std::list per set, MRU first, as a full
 *    CAM and 2- and 4-way set-associative: insert, lookup, store
 *    invalidation with 1-, 4- and 8-byte stores, displacement
 *    invalidation, corruptEvict numbering and size.
 *
 * Values and addresses come from small pools so hits, duplicates,
 * evictions and overlapping stores are common. Parameterized over RNG
 * seeds, like uarch_sched_fuzz_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <vector>

#include "core/cvu.hh"
#include "util/rng.hh"
#include "util/value_history.hh"

namespace lvplib
{
namespace
{

/** Reference value history: one vector per entry, MRU first. */
class RefHistory
{
  public:
    RefHistory(std::uint32_t entries, std::uint32_t depth)
        : depth_(depth), items_(entries)
    {}

    /** Position of @p v in entry @p e, or depth when absent. */
    std::uint32_t
    find(std::uint32_t e, Word v) const
    {
        const auto &h = items_[e];
        auto it = std::find(h.begin(), h.end(), v);
        return it == h.end() ? depth_
                             : static_cast<std::uint32_t>(it - h.begin());
    }

    void
    touch(std::uint32_t e, Word v)
    {
        auto &h = items_[e];
        auto it = std::find(h.begin(), h.end(), v);
        if (it != h.end()) {
            std::rotate(h.begin(), it, it + 1);
            return;
        }
        if (h.size() == depth_)
            h.pop_back();
        h.insert(h.begin(), v);
    }

    std::vector<Word> &items(std::uint32_t e) { return items_[e]; }

  private:
    std::uint32_t depth_;
    std::vector<std::vector<Word>> items_;
};

/** Reference CVU: a std::list per set, MRU first. */
class RefCvu
{
  public:
    RefCvu(std::uint32_t entries, std::uint32_t ways)
        : capacity_(entries), ways_(ways == 0 ? entries : ways),
          numSets_(ways == 0 || entries == 0 ? 1 : entries / ways),
          sets_(numSets_)
    {}

    bool
    lookup(Addr addr, std::uint32_t idx)
    {
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == addr && it->idx == idx) {
                set.splice(set.begin(), set, it);
                return true;
            }
        }
        return false;
    }

    void
    insert(Addr addr, std::uint32_t idx, unsigned size)
    {
        if (capacity_ == 0)
            return;
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == addr && it->idx == idx) {
                it->size = size;
                set.splice(set.begin(), set, it);
                return;
            }
        }
        if (set.size() == ways_)
            set.pop_back();
        set.push_front({addr, idx, size});
    }

    /** Every set, every entry: no granule shortcut. */
    unsigned
    storeInvalidate(Addr a, unsigned len)
    {
        unsigned n = 0;
        for (auto &set : sets_) {
            n += static_cast<unsigned>(std::erase_if(set, [&](const E &e) {
                return e.addr < a + len && a < e.addr + e.size;
            }));
        }
        return n;
    }

    unsigned
    displaceInvalidate(std::uint32_t idx)
    {
        unsigned n = 0;
        for (auto &set : sets_) {
            n += static_cast<unsigned>(std::erase_if(
                set, [&](const E &e) { return e.idx == idx; }));
        }
        return n;
    }

    bool
    corruptEvict(std::uint64_t which)
    {
        std::size_t total = size();
        if (total == 0)
            return false;
        std::size_t target = static_cast<std::size_t>(which % total);
        for (auto &set : sets_) {
            if (target < set.size()) {
                set.erase(std::next(set.begin(),
                                    static_cast<std::ptrdiff_t>(target)));
                return true;
            }
            target -= set.size();
        }
        return false;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

  private:
    struct E
    {
        Addr addr;
        std::uint32_t idx;
        unsigned size;
    };

    std::size_t
    setOf(Addr addr) const
    {
        return numSets_ == 1
                   ? 0
                   : static_cast<std::size_t>((addr >> 3) & (numSets_ - 1));
    }

    std::uint32_t capacity_;
    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::vector<std::list<E>> sets_;
};

// Per seed: 4 history geometries and 5 CVU geometries; over 8 seeds,
// more than 1M operations each.
constexpr unsigned HistoryStreamOps = 40000;
constexpr unsigned CvuStreamOps = 30000;
static_assert(8 * 4 * HistoryStreamOps >= 1000000);
static_assert(8 * 5 * CvuStreamOps >= 1000000);

// History values are drawn below depth + 3 (at most 19) and fault
// injection flips only bits 0-2, so every value stays below this.
constexpr Word HistoryValueSpan = 32;

class TableFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TableFuzz, HistoryTableMatchesLruReference)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 5);
    for (std::uint32_t depth : {1u, 2u, 4u, 16u}) {
        const std::uint32_t entries = 8;
        ValueHistoryTable fast(entries, depth);
        RefHistory ref(entries, depth);
        // A pool a little wider than the history keeps both hits and
        // evictions frequent.
        const std::uint64_t pool = depth + 3;

        for (unsigned n = 0; n < HistoryStreamOps; ++n) {
            const auto e = static_cast<std::uint32_t>(rng.below(entries));
            const Word v = rng.below(pool);
            const std::uint64_t kind = rng.below(100);
            if (kind < 85) {
                // The LVPT's and the profilers' pattern: find, then
                // promote at the found position.
                const std::uint32_t pos = fast.find(e, v);
                ASSERT_EQ(pos, ref.find(e, v))
                    << "seed " << GetParam() << " depth " << depth
                    << " op " << n;
                fast.promote(e, pos, v);
                ref.touch(e, v);
            } else if (kind < 95) {
                // A lookup that does not train.
                ASSERT_EQ(fast.find(e, v), ref.find(e, v));
            } else if (kind < 98) {
                // Fault injection flips MRU bits and may duplicate a
                // value further down the history.
                if (!fast.empty(e)) {
                    const Word mask = Word{1} << rng.below(3);
                    fast.mru(e) ^= mask;
                    ref.items(e).front() ^= mask;
                }
            } else if (kind < 99) {
                fast.clear(e);
                ref.items(e).clear();
            }
            // Every answer the table gives about the entry: its count,
            // its MRU value and the position of every value it can
            // hold.
            const auto &want = ref.items(e);
            ASSERT_EQ(fast.size(e), want.size())
                << "seed " << GetParam() << " depth " << depth << " op "
                << n;
            ASSERT_EQ(fast.empty(e), want.empty());
            if (!want.empty()) {
                ASSERT_EQ(fast.mru(e), want.front());
            }
            for (Word x = 0; x < HistoryValueSpan; ++x) {
                ASSERT_EQ(fast.find(e, x), ref.find(e, x))
                    << "seed " << GetParam() << " depth " << depth
                    << " op " << n << " kind " << kind << " value " << x;
            }
        }
    }
}

/** A data address near the pool base; mostly size-aligned, as loads
 *  are, sometimes not, and now and then next to address 0. */
Addr
drawAddr(Rng &rng, unsigned size)
{
    if (rng.chance(1, 50))
        return rng.below(16);
    const Addr a = 0x1000 + rng.below(160);
    return rng.chance(3, 4) ? a & ~Addr{size - 1} : a;
}

unsigned
drawSize(Rng &rng)
{
    static constexpr unsigned Sizes[] = {1, 4, 8};
    return Sizes[rng.below(std::size(Sizes))];
}

TEST_P(TableFuzz, CvuMatchesListReference)
{
    Rng rng(GetParam() * 0x2545f4914f6cdd1dull + 17);
    struct Geometry
    {
        std::uint32_t entries;
        std::uint32_t ways;
    };
    // Full CAMs (one near the paper's 32), then 2- and 4-way sets.
    for (Geometry g : {Geometry{8, 0}, Geometry{32, 0}, Geometry{16, 2},
                       Geometry{16, 4}, Geometry{32, 2}}) {
        core::Cvu fast(g.entries, g.ways);
        RefCvu ref(g.entries, g.ways);
        for (unsigned n = 0; n < CvuStreamOps; ++n) {
            const std::uint64_t kind = rng.below(100);
            const unsigned size = drawSize(rng);
            const Addr addr = drawAddr(rng, size);
            const auto idx = static_cast<std::uint32_t>(rng.below(6));
            if (kind < 35) {
                fast.insert(addr, idx, size);
                ref.insert(addr, idx, size);
            } else if (kind < 65) {
                ASSERT_EQ(fast.lookup(addr, idx), ref.lookup(addr, idx))
                    << "seed " << GetParam() << " cvu " << g.entries << "/"
                    << g.ways << " op " << n;
            } else if (kind < 85) {
                ASSERT_EQ(fast.storeInvalidate(addr, size),
                          ref.storeInvalidate(addr, size))
                    << "seed " << GetParam() << " cvu " << g.entries << "/"
                    << g.ways << " op " << n << ": store " << addr << "+"
                    << size;
            } else if (kind < 93) {
                ASSERT_EQ(fast.displaceInvalidate(idx),
                          ref.displaceInvalidate(idx))
                    << "seed " << GetParam() << " op " << n;
            } else {
                const std::uint64_t which = rng.next();
                ASSERT_EQ(fast.corruptEvict(which), ref.corruptEvict(which))
                    << "seed " << GetParam() << " op " << n;
            }
            ASSERT_EQ(fast.size(), ref.size())
                << "seed " << GetParam() << " cvu " << g.entries << "/"
                << g.ways << " op " << n << " kind " << kind;
        }
        // Drain through corruptEvict, probing every (address, index)
        // pair the stream can insert after each eviction: the entry
        // numbering must agree down to the last entry.
        std::vector<Addr> addrs;
        for (Addr a = 0; a < 16; ++a)
            addrs.push_back(a);
        for (Addr a = 0x1000; a < 0x1000 + 160; ++a)
            addrs.push_back(a);
        while (ref.size() > 0) {
            const std::uint64_t which = rng.next();
            ASSERT_TRUE(fast.corruptEvict(which));
            ASSERT_TRUE(ref.corruptEvict(which));
            for (Addr a : addrs) {
                for (std::uint32_t idx = 0; idx < 6; ++idx)
                    ASSERT_EQ(fast.lookup(a, idx), ref.lookup(a, idx))
                        << "seed " << GetParam() << " cvu " << g.entries
                        << "/" << g.ways << " draining at size "
                        << ref.size() << ": " << a << "/" << idx;
            }
        }
        EXPECT_EQ(fast.size(), 0u);
        EXPECT_FALSE(fast.corruptEvict(0));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace lvplib
