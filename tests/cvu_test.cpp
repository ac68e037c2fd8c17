/**
 * @file
 * Unit tests for the Constant Verification Unit (paper Section 3.3):
 * fully-associative (address, LVPT-index) matching, store-side
 * invalidation of every overlapping entry, LVPT-displacement
 * invalidation, and LRU capacity management.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/cvu.hh"
#include "util/rng.hh"

namespace lvplib::core
{
namespace
{

TEST(Cvu, LookupMissesWhenEmpty)
{
    Cvu c(8);
    EXPECT_FALSE(c.lookup(0x1000, 3));
}

TEST(Cvu, InsertThenLookupHits)
{
    Cvu c(8);
    c.insert(0x1000, 3, 8);
    EXPECT_TRUE(c.lookup(0x1000, 3));
    EXPECT_FALSE(c.lookup(0x1000, 4))
        << "the LVPT index is part of the match";
    EXPECT_FALSE(c.lookup(0x1008, 3))
        << "the data address is part of the match";
}

TEST(Cvu, StoreInvalidatesExactAddress)
{
    Cvu c(8);
    c.insert(0x1000, 1, 8);
    EXPECT_EQ(c.storeInvalidate(0x1000, 8), 1u);
    EXPECT_FALSE(c.lookup(0x1000, 1));
}

TEST(Cvu, StoreInvalidatesPartialOverlap)
{
    Cvu c(8);
    c.insert(0x1000, 1, 8); // covers [0x1000, 0x1008)
    // A 1-byte store into the middle of the loaded range.
    EXPECT_EQ(c.storeInvalidate(0x1004, 1), 1u);
    EXPECT_FALSE(c.lookup(0x1000, 1));
}

TEST(Cvu, StoreBelowOrAboveDoesNotInvalidate)
{
    Cvu c(8);
    c.insert(0x1000, 1, 8);
    EXPECT_EQ(c.storeInvalidate(0x0ff8, 8), 0u); // ends at 0x1000
    EXPECT_EQ(c.storeInvalidate(0x1008, 8), 0u); // starts at end
    EXPECT_TRUE(c.lookup(0x1000, 1));
}

TEST(Cvu, StoreInvalidatesAllMatchingEntries)
{
    Cvu c(8);
    // Two different static loads (different LVPT indices) of the same
    // address: the paper says ALL matching entries are removed.
    c.insert(0x2000, 1, 8);
    c.insert(0x2000, 2, 8);
    EXPECT_EQ(c.storeInvalidate(0x2000, 8), 2u);
    EXPECT_FALSE(c.lookup(0x2000, 1));
    EXPECT_FALSE(c.lookup(0x2000, 2));
}

TEST(Cvu, DisplacementInvalidatesByIndex)
{
    Cvu c(8);
    c.insert(0x1000, 5, 8);
    c.insert(0x2000, 5, 8); // same LVPT entry, different address
    c.insert(0x3000, 6, 8);
    EXPECT_EQ(c.displaceInvalidate(5), 2u);
    EXPECT_FALSE(c.lookup(0x1000, 5));
    EXPECT_FALSE(c.lookup(0x2000, 5));
    EXPECT_TRUE(c.lookup(0x3000, 6));
}

TEST(Cvu, CapacityEvictsLru)
{
    Cvu c(2);
    c.insert(0x1000, 1, 8);
    c.insert(0x2000, 2, 8);
    EXPECT_TRUE(c.lookup(0x1000, 1)); // refresh 0x1000 -> MRU
    c.insert(0x3000, 3, 8);           // evicts LRU = 0x2000
    EXPECT_TRUE(c.lookup(0x1000, 1));
    EXPECT_FALSE(c.lookup(0x2000, 2));
    EXPECT_TRUE(c.lookup(0x3000, 3));
    EXPECT_EQ(c.size(), 2u);
}

TEST(Cvu, ReinsertRefreshesInsteadOfDuplicating)
{
    Cvu c(4);
    c.insert(0x1000, 1, 8);
    c.insert(0x1000, 1, 8);
    EXPECT_EQ(c.size(), 1u);
}

TEST(Cvu, ZeroCapacityIsDisabled)
{
    Cvu c(0);
    EXPECT_FALSE(c.enabled());
    c.insert(0x1000, 1, 8);
    EXPECT_FALSE(c.lookup(0x1000, 1));
    EXPECT_EQ(c.size(), 0u);
}

TEST(CvuSetAssoc, LookupAndInsertRespectSets)
{
    Cvu c(8, 2); // 4 sets of 2 ways, indexed by 8-byte granule
    EXPECT_EQ(c.ways(), 2u);
    c.insert(0x1000, 1, 8);
    EXPECT_TRUE(c.lookup(0x1000, 1));
    // Same set (granule differs by numSets * 8 = 32 bytes):
    c.insert(0x1020, 2, 8);
    c.insert(0x1040, 3, 8); // third entry in a 2-way set evicts LRU
    EXPECT_FALSE(c.lookup(0x1000, 1)) << "LRU of the set evicted";
    EXPECT_TRUE(c.lookup(0x1020, 2));
    EXPECT_TRUE(c.lookup(0x1040, 3));
}

TEST(CvuSetAssoc, DifferentSetsDoNotConflict)
{
    Cvu c(8, 2);
    c.insert(0x1000, 1, 8); // set (0x1000>>3) & 3 = 0
    c.insert(0x1008, 2, 8); // set 1
    c.insert(0x1010, 3, 8); // set 2
    c.insert(0x1018, 4, 8); // set 3
    EXPECT_TRUE(c.lookup(0x1000, 1));
    EXPECT_TRUE(c.lookup(0x1008, 2));
    EXPECT_TRUE(c.lookup(0x1010, 3));
    EXPECT_TRUE(c.lookup(0x1018, 4));
}

TEST(CvuSetAssoc, StoreInvalidationStaysCoherentAcrossSets)
{
    Cvu c(8, 2);
    // An entry whose 8-byte range starts just below the store.
    c.insert(0x0ffc, 1, 8); // covers [0xffc, 0x1004): set of 0xffc
    c.insert(0x1000, 2, 8); // set of 0x1000
    // A 1-byte store at 0x1000 overlaps BOTH entries even though
    // their base addresses live in different granule sets.
    EXPECT_EQ(c.storeInvalidate(0x1000, 1), 2u);
    EXPECT_FALSE(c.lookup(0x0ffc, 1));
    EXPECT_FALSE(c.lookup(0x1000, 2));
}

TEST(CvuSetAssoc, CoherencePropertyUnderRandomTraffic)
{
    // The CVU must never "verify" an address a store has touched,
    // regardless of organization. Randomized cross-check of FA vs
    // 2-way: any address the set-assoc unit verifies must also be
    // untouched since its insert.
    Rng rng(99);
    Cvu sa(16, 2);
    std::unordered_map<Addr, int> version; // bumped per store
    std::unordered_map<Addr, int> inserted_at;
    for (int i = 0; i < 4000; ++i) {
        Addr a = 0x2000 + rng.below(32) * 8;
        if (rng.chance(1, 3)) {
            version[a]++;
            sa.storeInvalidate(a, 8);
        } else if (rng.chance(1, 2)) {
            inserted_at[a] = version[a];
            sa.insert(a, static_cast<std::uint32_t>(a >> 3), 8);
        } else {
            if (sa.lookup(a, static_cast<std::uint32_t>(a >> 3))) {
                ASSERT_EQ(version[a], inserted_at[a])
                    << "stale verification at iteration " << i;
            }
        }
    }
}

TEST(CvuSetAssoc, BadGeometryIsFatal)
{
    EXPECT_EXIT(Cvu(12, 5), ::testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
} // namespace lvplib::core
