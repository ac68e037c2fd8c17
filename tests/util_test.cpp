/**
 * @file
 * Unit tests for the utility layer: saturating counters, value-history
 * tables,
 * the deterministic RNG, statistics containers, and table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "util/rng.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/value_history.hh"

namespace lvplib
{
namespace
{

TEST(SatCounter, SaturatesAtTopAndBottom)
{
    SatCounter c(2);
    EXPECT_EQ(c.value(), 0);
    c.decrement();
    EXPECT_EQ(c.value(), 0) << "must saturate at zero";
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3) << "must saturate at 2^n - 1";
    EXPECT_TRUE(c.saturatedHigh());
}

TEST(SatCounter, OneBitCounterHasTwoStates)
{
    SatCounter c(1);
    EXPECT_EQ(c.maxValue(), 1);
    c.increment();
    EXPECT_EQ(c.value(), 1);
    c.increment();
    EXPECT_EQ(c.value(), 1);
    c.decrement();
    EXPECT_EQ(c.value(), 0);
}

TEST(SatCounter, UpperHalfBoundary)
{
    SatCounter c(2);
    EXPECT_FALSE(c.upperHalf()); // 0
    c.increment();
    EXPECT_FALSE(c.upperHalf()); // 1
    c.increment();
    EXPECT_TRUE(c.upperHalf()); // 2
    c.increment();
    EXPECT_TRUE(c.upperHalf()); // 3
}

TEST(SatCounter, SetClamps)
{
    SatCounter c(2);
    c.set(200);
    EXPECT_EQ(c.value(), 3);
    c.set(1);
    EXPECT_EQ(c.value(), 1);
}

/** Record a use of @p v in entry @p e as the LVPT and the profilers
 *  do (find, then promote there); true when @p v was present. */
bool
touch(ValueHistoryTable &t, std::uint32_t e, Word v)
{
    const std::uint32_t pos = t.find(e, v);
    t.promote(e, pos, v);
    return pos != t.depth();
}

TEST(ValueHistoryTable, TouchPromotesToMru)
{
    ValueHistoryTable t(1, 3);
    EXPECT_FALSE(touch(t, 0, 1));
    EXPECT_FALSE(touch(t, 0, 2));
    EXPECT_FALSE(touch(t, 0, 3));
    EXPECT_EQ(t.mru(0), 3u);
    EXPECT_TRUE(touch(t, 0, 1));
    EXPECT_EQ(t.mru(0), 1u);
    EXPECT_EQ(t.size(0), 3u);
    EXPECT_EQ(t.find(0, 1), 0u);
    EXPECT_EQ(t.find(0, 3), 1u);
    EXPECT_EQ(t.find(0, 2), 2u);
}

TEST(ValueHistoryTable, EvictsLeastRecentlyUsed)
{
    ValueHistoryTable t(1, 2);
    touch(t, 0, 1);
    touch(t, 0, 2);
    touch(t, 0, 3); // evicts 1
    EXPECT_EQ(t.find(0, 1), t.depth());
    EXPECT_EQ(t.find(0, 2), 1u);
    EXPECT_EQ(t.find(0, 3), 0u);
    EXPECT_EQ(t.size(0), 2u);
}

TEST(ValueHistoryTable, DepthOneKeepsOnlyMostRecent)
{
    ValueHistoryTable t(1, 1);
    touch(t, 0, 7);
    touch(t, 0, 8);
    EXPECT_EQ(t.find(0, 7), t.depth());
    EXPECT_EQ(t.mru(0), 8u);
}

TEST(ValueHistoryTable, TouchReportsHit)
{
    ValueHistoryTable t(1, 4);
    EXPECT_FALSE(touch(t, 0, 5));
    EXPECT_TRUE(touch(t, 0, 5));
    EXPECT_EQ(t.size(0), 1u) << "a hit inserts nothing";
}

TEST(ValueHistoryTable, EntriesAreIndependent)
{
    ValueHistoryTable t(4, 2);
    touch(t, 1, 10);
    touch(t, 2, 20);
    EXPECT_TRUE(t.empty(0));
    EXPECT_EQ(t.mru(1), 10u);
    EXPECT_EQ(t.find(2, 20), 0u);
    EXPECT_EQ(t.find(1, 20), t.depth()) << "absent reads as depth()";
    t.clear(1);
    EXPECT_TRUE(t.empty(1));
    EXPECT_EQ(t.mru(2), 20u);
}

TEST(Rng, DeterministicForFixedSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Stats, PctHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(pct(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
}

TEST(Stats, GeomeanMatchesHandComputation)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, MeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4);
    h.record(0);
    h.record(3);
    h.record(3);
    h.record(9); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketPct(3), 50.0);
    EXPECT_DOUBLE_EQ(h.overflowPct(), 25.0);
}

TEST(Histogram, WeightedRecordAndMean)
{
    Histogram h(8);
    h.record(2, 3); // three samples of 2
    h.record(6, 1);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.sampleMean(), (3 * 2 + 6) / 4.0);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(4), b(4);
    a.record(1);
    b.record(1);
    b.record(7);
    a.merge(b);
    EXPECT_EQ(a.bucket(1), 2u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(Histogram, QuantileMatchesHandComputation)
{
    Histogram h(10);
    // 1,1,1,1, 3,3,3, 5,5, 9 — ten samples.
    h.record(1, 4);
    h.record(3, 3);
    h.record(5, 2);
    h.record(9, 1);
    EXPECT_EQ(h.quantile(0.0), 1u) << "q=0 is the smallest sample";
    EXPECT_EQ(h.quantile(0.4), 1u);
    EXPECT_EQ(h.quantile(0.5), 3u);
    EXPECT_EQ(h.quantile(0.7), 3u);
    EXPECT_EQ(h.quantile(0.9), 5u);
    EXPECT_EQ(h.quantile(1.0), 9u);
}

TEST(Histogram, QuantileClampsOutOfRangeQ)
{
    Histogram h(4);
    h.record(2, 5);
    EXPECT_EQ(h.quantile(-1.0), 2u);
    EXPECT_EQ(h.quantile(2.0), 2u);
}

TEST(Histogram, QuantileOfEmptyIsZero)
{
    Histogram h(8);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(Histogram, QuantileAllOverflowReportsBucketCount)
{
    Histogram h(4);
    h.record(100, 3); // everything lands in overflow
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.quantile(0.5), h.buckets())
        << "overflow samples have no exact value";
    EXPECT_EQ(h.quantile(1.0), h.buckets());
}

TEST(Histogram, QuantileSingleBucket)
{
    Histogram h(1);
    h.record(0, 7);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
    h.record(5); // overflow on a one-bucket histogram
    EXPECT_EQ(h.quantile(1.0), 1u);
}

TEST(Histogram, IteratorVisitsDirectBucketsOnly)
{
    Histogram h(4);
    h.record(0);
    h.record(2, 2);
    h.record(9); // overflow, not visited
    std::vector<Histogram::BucketEntry> seen;
    for (auto e : h)
        seen.push_back(e);
    ASSERT_EQ(seen.size(), 4u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].value, i);
        EXPECT_EQ(seen[i].count, h.bucket(i));
    }
    EXPECT_EQ(seen[0].count, 1u);
    EXPECT_EQ(seen[2].count, 2u);

    std::uint64_t direct = 0;
    for (auto e : h)
        direct += e.count;
    EXPECT_EQ(direct + h.overflow(), h.total());
}

TEST(Histogram, IteratorEqualityAndPostIncrement)
{
    Histogram h(2);
    auto it = h.begin();
    auto old = it++;
    EXPECT_EQ(old, h.begin());
    EXPECT_FALSE(it == h.begin());
    ++it;
    EXPECT_EQ(it, h.end());
}

TEST(Histogram, ClearResets)
{
    Histogram h(4);
    h.record(2);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
}

TEST(TextTable, AlignsColumnsAndCountsRows)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xxxxx", "y"});
    EXPECT_EQ(t.rows(), 1u);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("xxxxx"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::fmtPct(12.345, 1), "12.3%");
    EXPECT_EQ(TextTable::fmtDouble(1.5, 2), "1.50");
    EXPECT_EQ(TextTable::fmtCount(999), "999");
    EXPECT_EQ(TextTable::fmtCount(25'000'000), "25.0M");
    EXPECT_EQ(TextTable::fmtCount(48'000), "48.0K");
}

} // namespace
} // namespace lvplib
