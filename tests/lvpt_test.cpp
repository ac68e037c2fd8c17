/**
 * @file
 * Unit tests for the Load Value Prediction Table (paper Section 3.1):
 * direct-mapped untagged indexing (with constructive and destructive
 * interference), MRU prediction, and LRU value histories.
 */

#include <gtest/gtest.h>

#include "core/lvpt.hh"
#include "isa/program.hh"

namespace lvplib::core
{
namespace
{

constexpr Addr Pc0 = isa::layout::CodeBase;

/** pc of the i-th static instruction. */
Addr
pc(std::uint32_t i)
{
    return Pc0 + i * isa::layout::InstBytes;
}

/** Record @p value for the load at @p pc, as LvpUnit::onLoad does:
 *  one probe, then an update at the probed position. */
bool
train(Lvpt &t, Addr pc, Word value)
{
    return t.update(t.probe(pc, value), pc, value);
}

/** True when the entry for @p pc predicts @p value (holds it MRU). */
bool
predicts(const Lvpt &t, Addr pc, Word value)
{
    return t.probe(pc, value).pos == 0;
}

/** True when @p value is anywhere in the history of @p pc's entry. */
bool
holds(const Lvpt &t, Addr pc, Word value)
{
    return t.hit(t.probe(pc, value));
}

TEST(Lvpt, EmptyEntryMakesNoPrediction)
{
    Lvpt t(16, 1);
    for (Word v : {0, 1, 42})
        EXPECT_FALSE(holds(t, Pc0, v));
    EXPECT_EQ(t.probe(Pc0, 0).pos, t.depth()) << "absent reads as depth";
}

TEST(Lvpt, PredictsLastValue)
{
    Lvpt t(16, 1);
    train(t, Pc0, 42);
    EXPECT_TRUE(predicts(t, Pc0, 42));
    train(t, Pc0, 43);
    EXPECT_TRUE(predicts(t, Pc0, 43));
    EXPECT_FALSE(holds(t, Pc0, 42)) << "depth 1 keeps only the MRU";
}

TEST(Lvpt, UntaggedAliasingInterferes)
{
    Lvpt t(16, 1);
    // pc(0) and pc(16) map to the same entry in a 16-entry table.
    EXPECT_EQ(t.index(pc(0)), t.index(pc(16)));
    train(t, pc(0), 1);
    train(t, pc(16), 2); // destructive interference
    EXPECT_TRUE(predicts(t, pc(0), 2))
        << "untagged: aliased loads share the entry";
}

TEST(Lvpt, ConstructiveAliasing)
{
    Lvpt t(16, 1);
    train(t, pc(0), 7);
    // A different load at an aliasing pc predicts 7 "for free".
    EXPECT_TRUE(predicts(t, pc(16), 7));
}

TEST(Lvpt, DistinctEntriesAreIndependent)
{
    Lvpt t(16, 1);
    train(t, pc(0), 1);
    train(t, pc(1), 2);
    EXPECT_TRUE(predicts(t, pc(0), 1));
    EXPECT_TRUE(predicts(t, pc(1), 2));
}

TEST(Lvpt, HistoryContainsChecksFullDepth)
{
    Lvpt t(16, 4);
    for (Word v : {10, 20, 30, 40})
        train(t, Pc0, v);
    EXPECT_TRUE(holds(t, Pc0, 10));
    EXPECT_TRUE(holds(t, Pc0, 40));
    EXPECT_FALSE(holds(t, Pc0, 99));
    EXPECT_EQ(t.probe(Pc0, 40).pos, 0u) << "positions count from the MRU";
    EXPECT_EQ(t.probe(Pc0, 10).pos, 3u);
    // A fifth unique value evicts the LRU (10).
    train(t, Pc0, 50);
    EXPECT_FALSE(holds(t, Pc0, 10));
    EXPECT_TRUE(holds(t, Pc0, 20));
}

TEST(Lvpt, LruTouchKeepsHotValueResident)
{
    Lvpt t(16, 2);
    train(t, Pc0, 1);
    train(t, Pc0, 2);
    train(t, Pc0, 1); // touch 1 -> MRU
    train(t, Pc0, 3); // evicts 2
    EXPECT_TRUE(holds(t, Pc0, 1));
    EXPECT_FALSE(holds(t, Pc0, 2));
    EXPECT_TRUE(holds(t, Pc0, 3));
}

TEST(Lvpt, UpdateReportsMruDisplacement)
{
    Lvpt t(16, 1);
    EXPECT_TRUE(train(t, Pc0, 5)) << "first write changes the MRU";
    EXPECT_FALSE(train(t, Pc0, 5)) << "same value: no displacement";
    EXPECT_TRUE(train(t, Pc0, 6)) << "new value displaces";
}

TEST(Lvpt, IndexUsesWordAddress)
{
    Lvpt t(1024, 1);
    // Consecutive instructions map to consecutive entries.
    EXPECT_EQ(t.index(pc(1)), t.index(pc(0)) + 1);
    EXPECT_EQ(t.entries(), 1024u);
}

} // namespace
} // namespace lvplib::core
