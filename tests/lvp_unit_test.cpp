/**
 * @file
 * Tests for the composed LVP Unit (paper Section 3.4), including the
 * central coherence property: a CVU-verified constant load NEVER
 * returns a value different from what memory holds — checked here
 * both with directed sequences and with randomized load/store streams
 * against a shadow memory (parameterized property test).
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/lvp_unit.hh"
#include "isa/program.hh"
#include "util/rng.hh"

namespace lvplib::core
{
namespace
{

using trace::PredState;

constexpr Addr Pc0 = isa::layout::CodeBase;
constexpr Addr DataA = 0x100000;
constexpr Addr DataB = 0x200000;

LvpConfig
tinyConfig()
{
    LvpConfig c;
    c.name = "tiny";
    c.lvptEntries = 64;
    c.historyDepth = 1;
    c.lctEntries = 64;
    c.lctBits = 2;
    c.cvuEntries = 8;
    return c;
}

TEST(LvpUnit, WarmupThenPredictsCorrectly)
{
    LvpUnit u(tinyConfig());
    // Sighting 1 trains the LVPT (no prediction possible: counter 0,
    // empty entry); sightings 2-3 walk the counter 0 -> 1 -> 2.
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::None);
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::None);
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::None);
    // Counter now 2 ("predict"): the fourth sighting predicts.
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::Correct);
}

TEST(LvpUnit, ConstantPromotionGoesThroughCvu)
{
    LvpUnit u(tinyConfig());
    // 4 sightings walk the counter to 3 ("constant"): the first is a
    // cold miss, the next three train correct predictions.
    u.onLoad(Pc0, DataA, 7, 8);
    u.onLoad(Pc0, DataA, 7, 8);
    u.onLoad(Pc0, DataA, 7, 8);
    u.onLoad(Pc0, DataA, 7, 8);
    // Counter is 3: classified constant, but the CVU has no entry
    // yet, so the load demotes to predictable status (verified via
    // memory) and installs a CVU entry.
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::Correct);
    // Now the CVU entry exists: verified without memory access.
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::Constant);
    EXPECT_EQ(u.stats().constants, 1u);
}

TEST(LvpUnit, StoreInvalidatesConstant)
{
    LvpUnit u(tinyConfig());
    for (int i = 0; i < 5; ++i)
        u.onLoad(Pc0, DataA, 7, 8);
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::Constant);
    // A store to the address must kill the CVU entry...
    u.onStore(DataA, 8);
    // ...so the next load (new value!) is NOT treated as constant.
    auto s = u.onLoad(Pc0, DataA, 99, 8);
    EXPECT_NE(s, PredState::Constant);
    EXPECT_EQ(u.stats().cvuStaleHits, 0u);
}

TEST(LvpUnit, AliasedLoadDisplacementInvalidatesConstant)
{
    LvpUnit u(tinyConfig());
    // Train pc0 on DataA=7 to constant-with-CVU-entry.
    for (int i = 0; i < 5; ++i)
        u.onLoad(Pc0, DataA, 7, 8);
    // An aliasing load (same LVPT entry, 64 instructions away) writes
    // a different value into the shared entry.
    Addr alias = Pc0 + 64 * isa::layout::InstBytes;
    u.onLoad(alias, DataB, 1234, 8);
    // pc0's next access must not be verified as constant against the
    // displaced value (7 is gone from the LVPT).
    auto s = u.onLoad(Pc0, DataA, 7, 8);
    EXPECT_NE(s, PredState::Constant);
    EXPECT_EQ(u.stats().cvuStaleHits, 0u);
}

TEST(LvpUnit, MispredictionsAreReported)
{
    LvpUnit u(tinyConfig());
    u.onLoad(Pc0, DataA, 7, 8);
    u.onLoad(Pc0, DataA, 7, 8);
    u.onLoad(Pc0, DataA, 7, 8);
    // Classified "predict" now; a different value mispredicts.
    EXPECT_EQ(u.onLoad(Pc0, DataA, 8, 8), PredState::Incorrect);
    EXPECT_EQ(u.stats().incorrect, 1u);
}

TEST(LvpUnit, PerfectConfigPredictsEverythingNoConstants)
{
    LvpUnit u(LvpConfig::perfect());
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        auto s = u.onLoad(Pc0 + (i % 7) * 4, DataA + i * 8, rng.next(),
                          8);
        EXPECT_EQ(s, PredState::Correct);
    }
    EXPECT_EQ(u.stats().constants, 0u);
    EXPECT_EQ(u.stats().correct, 100u);
}

TEST(LvpUnit, LimitConfigUsesOracleHistorySelection)
{
    LvpConfig cfg = LvpConfig::limit();
    cfg.lvptEntries = 64;
    cfg.lctEntries = 64;
    LvpUnit u(cfg);
    // Alternate between two values: with depth-16 history and perfect
    // selection, both values predict correctly once seen.
    u.onLoad(Pc0, DataA, 1, 8); // miss (empty)
    u.onLoad(Pc0, DataA, 2, 8); // 2 not yet in history: wrong
    // Now history = {1, 2}: every subsequent 1/2 alternation is
    // "correct" under the oracle selector.
    for (int i = 0; i < 6; ++i) {
        Word v = (i % 2) ? 2 : 1;
        u.onLoad(Pc0, DataA, v, 8);
    }
    // The last several must have been predicted (counter >= 2).
    EXPECT_GT(u.stats().correct + u.stats().constants, 0u);
    EXPECT_EQ(u.stats().incorrect, 0u)
        << "oracle selection never mispredicts on values in history";
}

TEST(LvpUnit, StatsConfusionMatrixConsistent)
{
    LvpUnit u(tinyConfig());
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        Addr pc = Pc0 + (rng.next() % 16) * 4;
        Word v = rng.next() % 3;
        u.onLoad(pc, DataA + (pc - Pc0) * 2, v, 8);
    }
    const auto &st = u.stats();
    EXPECT_EQ(st.loads, 500u);
    EXPECT_EQ(st.actualPred + st.actualUnpred, st.loads);
    EXPECT_LE(st.unpredIdentified, st.actualUnpred);
    EXPECT_LE(st.predIdentified, st.actualPred);
    EXPECT_EQ(st.noPred + st.correct + st.incorrect + st.constants,
              st.loads);
}

TEST(LvpUnit, ResetClearsEverything)
{
    LvpUnit u(tinyConfig());
    for (int i = 0; i < 5; ++i)
        u.onLoad(Pc0, DataA, 7, 8);
    u.reset();
    EXPECT_EQ(u.stats().loads, 0u);
    EXPECT_EQ(u.onLoad(Pc0, DataA, 7, 8), PredState::None)
        << "tables must be cold again";
}


TEST(LvpUnit, BranchHistoryIndexSeparatesContexts)
{
    // A load that returns 1 after a taken branch and 2 after a
    // not-taken branch: a plain LVPT alternates and never predicts;
    // a BHR-indexed LVPT gives each context its own entry.
    auto run = [](std::uint32_t bhr_bits) {
        LvpConfig cfg = LvpConfig::simple();
        cfg.lvptEntries = 256;
        cfg.bhrBits = bhr_bits;
        LvpUnit u(cfg);
        for (int i = 0; i < 200; ++i) {
            bool taken = (i % 2) == 0;
            u.onBranch(taken);
            u.onLoad(Pc0, DataA, taken ? 1 : 2, 8);
        }
        return u.stats();
    };
    auto plain = run(0);
    auto keyed = run(4);
    EXPECT_EQ(plain.correct + plain.constants, 0u)
        << "depth-1 LVPT cannot track alternating values";
    EXPECT_GT(keyed.correct + keyed.constants, 150u)
        << "branch-history indexing splits the two contexts";
    EXPECT_EQ(keyed.cvuStaleHits, 0u);
}

TEST(LvpUnit, LvpStatsMergeSumsEveryField)
{
    // A resumed lvp-serve session reports its parked base stats plus
    // the resumed unit's, merged by operator+=: a field added to
    // LvpStats but forgotten there would silently corrupt every
    // resumed session. The static_assert pins the struct layout;
    // adding a field breaks this test until the merge (and this fill
    // pattern) learn about it.
    static_assert(sizeof(LvpStats) == 13 * sizeof(std::uint64_t),
                  "LvpStats changed: update operator+= and this test");
    LvpStats a, b;
    std::uint64_t *fa = reinterpret_cast<std::uint64_t *>(&a);
    std::uint64_t *fb = reinterpret_cast<std::uint64_t *>(&b);
    const std::size_t n = sizeof(LvpStats) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < n; ++i) {
        fa[i] = 1000 + i;
        fb[i] = 1;
    }
    a += b;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(fa[i], 1001 + i) << "LvpStats field " << i
                                   << " not summed by operator+=";
}

TEST(LvpUnit, BhrZeroBitsIsANoop)
{
    LvpConfig cfg = LvpConfig::simple();
    LvpUnit a(cfg), b(cfg);
    // Feeding branches into one unit and not the other must not
    // change anything when bhrBits == 0.
    for (int i = 0; i < 50; ++i) {
        a.onBranch(i % 3 == 0);
        auto sa = a.onLoad(Pc0, DataA, 7, 8);
        auto sb = b.onLoad(Pc0, DataA, 7, 8);
        EXPECT_EQ(sa, sb);
    }
}

/**
 * Property: under ANY interleaving of loads and stores, a load
 * reported as Constant always matches the current memory value
 * (stats().cvuStaleHits stays 0). Parameterized over RNG seeds.
 */
class CvuCoherenceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CvuCoherenceProperty, ConstantLoadsNeverStale)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
    LvpConfig cfg = tinyConfig();
    // Small tables maximize aliasing stress.
    cfg.lvptEntries = 16;
    cfg.lctEntries = 8;
    cfg.cvuEntries = 4;
    LvpUnit u(cfg);

    std::unordered_map<Addr, Word> memory;
    constexpr int NumAddrs = 12;
    constexpr int NumPcs = 24;
    for (int i = 0; i < 6000; ++i) {
        Addr addr = DataA + rng.below(NumAddrs) * 8;
        if (rng.chance(1, 4)) {
            // Store: sometimes the same value (silent store),
            // sometimes new.
            Word v = rng.chance(1, 2) ? memory[addr] : rng.below(5);
            memory[addr] = v;
            u.onStore(addr, 8);
        } else {
            Addr pc = Pc0 + rng.below(NumPcs) * 4;
            Word actual = memory[addr];
            auto s = u.onLoad(pc, addr, actual, 8);
            if (s == PredState::Constant) {
                // The unit itself cross-checks; stats must agree.
                ASSERT_EQ(u.stats().cvuStaleHits, 0u)
                    << "constant verified against a stale value at "
                    << "iteration " << i;
            }
        }
    }
    EXPECT_EQ(u.stats().cvuStaleHits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CvuCoherenceProperty,
                         ::testing::Range(0, 16));

/**
 * Property: prediction accounting identities hold for any stream.
 */
class LvpAccountingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LvpAccountingProperty, CountsAddUp)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
    for (const auto &cfg : LvpConfig::paperConfigs()) {
        LvpUnit u(cfg);
        std::uint64_t n = 0;
        for (int i = 0; i < 2000; ++i) {
            if (rng.chance(1, 5)) {
                u.onStore(DataA + rng.below(64) * 8, 8);
            } else {
                u.onLoad(Pc0 + rng.below(300) * 4,
                         DataA + rng.below(64) * 8, rng.below(7), 8);
                ++n;
            }
        }
        const auto &st = u.stats();
        EXPECT_EQ(st.loads, n);
        EXPECT_EQ(st.noPred + st.correct + st.incorrect + st.constants,
                  st.loads)
            << "config " << cfg.name;
        // NOTE: cvuStaleHits is NOT asserted here — this stream feeds
        // arbitrary values unbacked by a memory, so "staleness" is
        // meaningless. CvuCoherenceProperty covers the real property.
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LvpAccountingProperty,
                         ::testing::Range(0, 8));

} // namespace
} // namespace lvplib::core
