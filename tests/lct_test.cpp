/**
 * @file
 * Unit tests for the Load Classification Table (paper Section 3.2).
 * The 2-bit counter's states 0-3 must map to "don't predict", "don't
 * predict", "predict", "constant"; the 1-bit counter's to "don't
 * predict", "constant". Training increments on correct predictions
 * and decrements otherwise.
 */

#include <gtest/gtest.h>

#include "core/lct.hh"
#include "isa/program.hh"

namespace lvplib::core
{
namespace
{

constexpr Addr Pc0 = isa::layout::CodeBase;

TEST(Lct, TwoBitStateAssignmentMatchesPaper)
{
    Lct t(16, 2);
    // state 0: don't predict
    EXPECT_EQ(t.classify(Pc0), LoadClass::DontPredict);
    t.update(Pc0, true); // -> 1: still don't predict
    EXPECT_EQ(t.counter(Pc0), 1);
    EXPECT_EQ(t.classify(Pc0), LoadClass::DontPredict);
    t.update(Pc0, true); // -> 2: predict
    EXPECT_EQ(t.classify(Pc0), LoadClass::Predict);
    t.update(Pc0, true); // -> 3: constant
    EXPECT_EQ(t.classify(Pc0), LoadClass::Constant);
    t.update(Pc0, true); // saturates at 3
    EXPECT_EQ(t.counter(Pc0), 3);
}

TEST(Lct, OneBitStateAssignmentMatchesPaper)
{
    Lct t(16, 1);
    EXPECT_EQ(t.classify(Pc0), LoadClass::DontPredict);
    t.update(Pc0, true);
    EXPECT_EQ(t.classify(Pc0), LoadClass::Constant)
        << "1-bit: the two states are don't-predict and constant";
    t.update(Pc0, false);
    EXPECT_EQ(t.classify(Pc0), LoadClass::DontPredict);
}

TEST(Lct, MispredictionsDemote)
{
    Lct t(16, 2);
    for (int i = 0; i < 3; ++i)
        t.update(Pc0, true);
    EXPECT_EQ(t.classify(Pc0), LoadClass::Constant);
    t.update(Pc0, false); // 3 -> 2
    EXPECT_EQ(t.classify(Pc0), LoadClass::Predict);
    t.update(Pc0, false); // 2 -> 1
    EXPECT_EQ(t.classify(Pc0), LoadClass::DontPredict);
    t.update(Pc0, false); // saturates at 0 eventually
    t.update(Pc0, false);
    EXPECT_EQ(t.counter(Pc0), 0);
}

TEST(Lct, DirectMappedAliasing)
{
    Lct t(16, 2);
    Addr alias = Pc0 + 16 * isa::layout::InstBytes;
    EXPECT_EQ(t.index(Pc0), t.index(alias));
    t.update(Pc0, true);
    t.update(Pc0, true);
    EXPECT_EQ(t.classify(alias), LoadClass::Predict)
        << "aliased loads share a counter (untagged)";
}

TEST(Lct, IndependentCounters)
{
    Lct t(16, 2);
    Addr other = Pc0 + 4;
    t.update(Pc0, true);
    t.update(Pc0, true);
    EXPECT_EQ(t.classify(Pc0), LoadClass::Predict);
    EXPECT_EQ(t.classify(other), LoadClass::DontPredict);
}

TEST(Lct, WiderCountersGeneralize)
{
    Lct t(16, 3);
    for (int i = 0; i < 7; ++i)
        t.update(Pc0, true);
    EXPECT_EQ(t.classify(Pc0), LoadClass::Constant); // top state
    t.update(Pc0, false);
    EXPECT_EQ(t.classify(Pc0), LoadClass::Predict); // top-1
    t.update(Pc0, false);
    EXPECT_EQ(t.classify(Pc0), LoadClass::DontPredict);
}

} // namespace
} // namespace lvplib::core
