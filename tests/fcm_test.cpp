/**
 * @file
 * Tests for the two-level finite-context-method value predictor
 * (extension along the paper's future-work axis): pattern capture
 * beyond last-value and stride prediction, LCT gating, and
 * accounting identities.
 */

#include <gtest/gtest.h>

#include "core/fcm_unit.hh"
#include "isa/program.hh"
#include "util/rng.hh"

namespace lvplib::core
{
namespace
{

using trace::PredState;

constexpr Addr Pc0 = isa::layout::CodeBase;
constexpr Addr DataA = 0x100000;

FcmConfig
tiny()
{
    FcmConfig c;
    c.level1Entries = 64;
    c.level2Entries = 512;
    c.lctEntries = 64;
    return c;
}

/** Run a repeating value sequence and return the unit's stats. */
LvpStats
runPattern(const std::vector<Word> &pattern, int reps,
           const FcmConfig &cfg = tiny())
{
    FcmUnit u(cfg);
    for (int r = 0; r < reps; ++r)
        for (Word v : pattern)
            u.onLoad(Pc0, DataA, v, 8);
    return u.stats();
}

TEST(FcmUnit, PredictsConstants)
{
    auto st = runPattern({42}, 50);
    EXPECT_GT(st.correct, 40u);
    EXPECT_EQ(st.incorrect, 0u);
}

TEST(FcmUnit, PredictsAlternationThatDefeatsLastValue)
{
    // Period-2 pattern: last-value prediction scores 0 here; FCM's
    // context distinguishes "...after a 1" from "...after a 2".
    auto st = runPattern({1, 2}, 100);
    EXPECT_GT(st.correct, 150u)
        << "FCM must lock onto a period-2 pattern";
}

TEST(FcmUnit, PredictsLongerPeriodsUpToItsOrder)
{
    // Period-3 pattern with order-2 contexts: any two consecutive
    // values uniquely determine the next, so FCM locks on.
    auto st = runPattern({5, 9, 7}, 100);
    EXPECT_GT(st.correct, 250u);
    // A pattern whose contexts stay AMBIGUOUS even a few values deep:
    // in 1,1,1,1,2 a run of 1s precedes both another 1 and the 2, so
    // the context entry flip-flops on those positions and the rate
    // stays well below perfect.
    auto hard = runPattern({1, 1, 1, 1, 2}, 100);
    EXPECT_LT(static_cast<double>(hard.correct) /
                  static_cast<double>(hard.loads),
              0.9);
}

TEST(FcmUnit, LctSuppressesRandomValues)
{
    FcmUnit u(tiny());
    Rng rng(11);
    for (int i = 0; i < 3000; ++i)
        u.onLoad(Pc0, DataA, rng.next(), 8);
    EXPECT_GT(u.stats().noPred, 2500u);
    EXPECT_LT(u.stats().incorrect, 300u);
}

TEST(FcmUnit, NeverClaimsConstants)
{
    // No CVU: the FCM unit must never report PredState::Constant.
    FcmUnit u(tiny());
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(u.onLoad(Pc0, DataA, 7, 8), PredState::Constant);
    EXPECT_EQ(u.stats().constants, 0u);
}

TEST(FcmUnit, AccountingIdentities)
{
    FcmUnit u(tiny());
    Rng rng(13);
    for (int i = 0; i < 2000; ++i)
        u.onLoad(Pc0 + rng.below(40) * 4, DataA, rng.below(4), 8);
    const auto &st = u.stats();
    EXPECT_EQ(st.loads, 2000u);
    EXPECT_EQ(st.noPred + st.correct + st.incorrect + st.constants,
              st.loads);
    EXPECT_EQ(st.actualPred + st.actualUnpred, st.loads);
}

TEST(FcmUnit, SeparateLoadsSeparateContexts)
{
    FcmUnit u(tiny());
    // Two static loads with different periodic patterns must not
    // destroy each other's contexts (distinct level-1 entries).
    for (int i = 0; i < 120; ++i) {
        u.onLoad(Pc0, DataA, (i % 2) ? 1 : 2, 8);
        u.onLoad(Pc0 + 4, DataA + 8, (i % 3), 8);
    }
    double rate = static_cast<double>(u.stats().correct) /
                  static_cast<double>(u.stats().loads);
    EXPECT_GT(rate, 0.6);
}

TEST(FcmUnit, ContextForgetsValuesOlderThanOrder)
{
    // Regression: the fold shift used to be 64 / (order + 1), which is
    // 21 for the default order 2 — three folds covered only 63 of the
    // context's 64 bits, so one bit of every ancient value stayed in
    // the hash forever and two loads with identical recent histories
    // could land in different level-2 entries. The context must be a
    // function of the last `order` values only.
    FcmConfig cfg = tiny();
    ASSERT_EQ(cfg.order, 2u);
    FcmUnit a(cfg), b(cfg);
    // Different ancient histories (different lengths, too)...
    for (Word v : {Word{0x1111}, Word{0x2222}, Word{0x3333}})
        a.onLoad(Pc0, DataA, v, 8);
    for (Word v : {Word{0xAAAA}, Word{0xBBBB}})
        b.onLoad(Pc0, DataA, v, 8);
    // ...then the same most-recent `order` values.
    for (Word v : {Word{7}, Word{9}}) {
        a.onLoad(Pc0, DataA, v, 8);
        b.onLoad(Pc0, DataA, v, 8);
    }
    EXPECT_EQ(a.contexts(), b.contexts())
        << "context must converge once the last `order` values agree";
}

TEST(FcmUnit, OrderOneContextIsLastValueOnly)
{
    // order == 1 makes the fold shift 64 — the UB edge the fold must
    // special-case by clearing the old context entirely.
    FcmConfig cfg = tiny();
    cfg.order = 1;
    FcmUnit a(cfg), b(cfg);
    a.onLoad(Pc0, DataA, 123456, 8);
    a.onLoad(Pc0, DataA, 55, 8);
    b.onLoad(Pc0, DataA, 55, 8);
    EXPECT_EQ(a.contexts(), b.contexts());
}

TEST(FcmConfigDeathTest, RejectsOrderZero)
{
    FcmConfig cfg = tiny();
    cfg.order = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "fatal:");
    cfg.order = 9;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "fatal:");
}

TEST(FcmConfigDeathTest, RejectsNonPowerOfTwoTables)
{
    FcmConfig cfg = tiny();
    cfg.level1Entries = 100;
    EXPECT_EXIT(FcmUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
    cfg = tiny();
    cfg.level2Entries = 500;
    EXPECT_EXIT(FcmUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
    cfg = tiny();
    cfg.lctEntries = 48;
    EXPECT_EXIT(FcmUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
}

} // namespace
} // namespace lvplib::core
