/**
 * @file
 * Tests for the stride value prediction extension (paper Section 7
 * future work) and the tagged-LVPT ablation knob.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/lvpt.hh"
#include "core/stride_unit.hh"
#include "isa/program.hh"
#include "util/rng.hh"

namespace lvplib::core
{
namespace
{

using trace::PredState;

constexpr Addr Pc0 = isa::layout::CodeBase;
constexpr Addr DataA = 0x100000;

StrideConfig
tiny()
{
    StrideConfig c;
    c.entries = 64;
    c.lctEntries = 64;
    c.cvuEntries = 8;
    return c;
}

TEST(StrideUnit, FollowsAnArithmeticSequence)
{
    StrideLvpUnit u(tiny());
    // Values 0, 8, 16, ... — after stride training and LCT warmup
    // every load predicts correctly.
    unsigned correct_tail = 0;
    for (int i = 0; i < 40; ++i) {
        auto s = u.onLoad(Pc0, DataA + static_cast<Addr>(i) * 8,
                          static_cast<Word>(i) * 8, 8);
        if (i >= 8)
            correct_tail += (s == PredState::Correct);
    }
    EXPECT_EQ(correct_tail, 32u)
        << "a steady stride must predict perfectly after warmup";
    EXPECT_EQ(u.stats().incorrect, 0u)
        << "the LCT must gate the unconfident early predictions";
}

TEST(StrideUnit, ZeroStrideActsAsConstantWithCvu)
{
    StrideLvpUnit u(tiny());
    PredState last = PredState::None;
    for (int i = 0; i < 8; ++i)
        last = u.onLoad(Pc0, DataA, 42, 8);
    EXPECT_EQ(last, PredState::Constant)
        << "a zero-stride entry is a constant and goes through the CVU";
    u.onStore(DataA, 8);
    auto after = u.onLoad(Pc0, DataA, 42, 8);
    EXPECT_NE(after, PredState::Constant)
        << "the store must invalidate the CVU entry";
}

TEST(StrideUnit, NonZeroStrideNeverConstant)
{
    StrideLvpUnit u(tiny());
    for (int i = 0; i < 50; ++i) {
        auto s = u.onLoad(Pc0, DataA, static_cast<Word>(i) * 4, 8);
        EXPECT_NE(s, PredState::Constant)
            << "a changing value must never be CVU-verified";
    }
    EXPECT_EQ(u.stats().constants, 0u);
    EXPECT_EQ(u.stats().cvuStaleHits, 0u);
}

TEST(StrideUnit, StrideChangeRetrains)
{
    StrideLvpUnit u(tiny());
    for (int i = 0; i < 20; ++i)
        u.onLoad(Pc0, DataA, static_cast<Word>(i) * 8, 8);
    auto correct_before = u.stats().correct;
    // Switch to stride 24; the first prediction after the switch is
    // wrong, then the unit re-locks.
    Word base = 20 * 8;
    unsigned tail = 0;
    for (int i = 0; i < 20; ++i) {
        auto s = u.onLoad(Pc0, DataA,
                          base + static_cast<Word>(i) * 24, 8);
        if (i >= 8)
            tail += (s == PredState::Correct);
    }
    EXPECT_GT(u.stats().correct, correct_before);
    EXPECT_EQ(tail, 12u) << "re-locks onto the new stride";
}

TEST(StrideUnit, RandomValuesSuppressedByLct)
{
    StrideLvpUnit u(tiny());
    Rng rng(7);
    for (int i = 0; i < 3000; ++i)
        u.onLoad(Pc0, DataA, rng.next(), 8);
    // Random 64-bit values are unpredictable; the LCT must keep the
    // unit quiet (mispredictions an order of magnitude below loads).
    EXPECT_LT(u.stats().incorrect, 300u);
    EXPECT_GT(u.stats().noPred, 2500u);
}

TEST(StrideUnit, AccountingIdentities)
{
    StrideLvpUnit u(tiny());
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
        if (rng.chance(1, 5))
            u.onStore(DataA + rng.below(32) * 8, 8);
        else
            u.onLoad(Pc0 + rng.below(100) * 4,
                     DataA + rng.below(32) * 8, rng.below(5), 8);
    }
    const auto &st = u.stats();
    EXPECT_EQ(st.noPred + st.correct + st.incorrect + st.constants,
              st.loads);
    EXPECT_EQ(st.actualPred + st.actualUnpred, st.loads);
}

/**
 * Coherence property for the stride unit's CVU path, mirroring the
 * history-based unit's test: Constant results never deliver a value
 * different from memory.
 */
class StrideCvuCoherence : public ::testing::TestWithParam<int>
{
};

TEST_P(StrideCvuCoherence, ConstantLoadsNeverStale)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    StrideConfig cfg = tiny();
    cfg.entries = 16;
    cfg.lctEntries = 8;
    cfg.cvuEntries = 4;
    StrideLvpUnit u(cfg);
    std::unordered_map<Addr, Word> memory;
    for (int i = 0; i < 6000; ++i) {
        Addr addr = DataA + rng.below(12) * 8;
        if (rng.chance(1, 4)) {
            memory[addr] = rng.chance(1, 2) ? memory[addr]
                                            : rng.below(5);
            u.onStore(addr, 8);
        } else {
            u.onLoad(Pc0 + rng.below(24) * 4, addr, memory[addr], 8);
        }
    }
    EXPECT_EQ(u.stats().cvuStaleHits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrideCvuCoherence,
                         ::testing::Range(0, 12));

// ---- tagged LVPT ablation ------------------------------------------

/** Record @p value for the load at @p pc: probe, then update. */
bool
train(Lvpt &t, Addr pc, Word value)
{
    return t.update(t.probe(pc, value), pc, value);
}

TEST(TaggedLvpt, NoDestructiveInterference)
{
    Lvpt t(16, 1, /*tagged=*/true);
    Addr alias = Pc0 + 16 * isa::layout::InstBytes;
    train(t, Pc0, 1);
    EXPECT_FALSE(t.probe(alias, 1).tagHit)
        << "tag mismatch must miss instead of aliasing";
    EXPECT_FALSE(t.hit(t.probe(alias, 1)));
    train(t, alias, 2); // takes over the entry
    EXPECT_FALSE(t.probe(Pc0, 2).tagHit);
    EXPECT_FALSE(t.hit(t.probe(Pc0, 2)));
    EXPECT_EQ(t.probe(alias, 2).pos, 0u);
}

TEST(TaggedLvpt, NoConstructiveInterferenceEither)
{
    Lvpt untagged(16, 1, false);
    train(untagged, Pc0, 7);
    EXPECT_TRUE(untagged.hit(untagged.probe(Pc0 + 64, 7)))
        << "untagged: aliased pc sees the value (constructive)";
    Lvpt tagged(16, 1, true);
    train(tagged, Pc0, 7);
    EXPECT_FALSE(tagged.hit(tagged.probe(Pc0 + 64, 7)));
}

TEST(TaggedLvpt, HistoryClearedOnTakeover)
{
    Lvpt t(16, 4, true);
    train(t, Pc0, 1);
    train(t, Pc0, 2);
    Addr alias = Pc0 + 16 * isa::layout::InstBytes;
    train(t, alias, 9);
    EXPECT_FALSE(t.hit(t.probe(alias, 1)))
        << "the previous owner's history must not leak";
    EXPECT_TRUE(t.hit(t.probe(alias, 9)));
}

TEST(TaggedLvpt, SameOwnerBehavesLikeUntagged)
{
    Lvpt tagged(64, 2, true);
    Lvpt untagged(64, 2, false);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        Word v = rng.below(4);
        // Single pc: no aliasing, so both must agree exactly.
        EXPECT_EQ(train(tagged, Pc0, v), train(untagged, Pc0, v));
        for (Word w = 0; w < 4; ++w)
            EXPECT_EQ(tagged.probe(Pc0, w).pos, untagged.probe(Pc0, w).pos);
    }
}

} // namespace
} // namespace lvplib::core
