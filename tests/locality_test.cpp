/**
 * @file
 * Unit tests for the value-locality profiler (paper Figures 1-2):
 * exact hit percentages on crafted load sequences, data-class
 * attribution, and the paper's footnote-1 measurement artifacts
 * (untagged 1K-entry table, LRU replacement, interference).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/locality_profiler.hh"
#include "isa/program.hh"

namespace lvplib::core
{
namespace
{

using isa::DataClass;
using isa::Instruction;
using isa::Opcode;

constexpr Addr Pc0 = isa::layout::CodeBase;

/** Feed one synthetic load record. */
void
load(ValueLocalityProfiler &p, const Instruction &inst, Addr pc, Word v)
{
    trace::TraceRecord rec;
    rec.pc = pc;
    rec.inst = &inst;
    rec.value = v;
    rec.effAddr = 0x1000;
    p.consume(rec);
}

TEST(LocalityProfiler, RepeatedValueCountsAfterFirst)
{
    ValueLocalityProfiler p(1024, 16);
    Instruction ld{.op = Opcode::LD, .rd = 3, .rs1 = 2};
    for (int i = 0; i < 10; ++i)
        load(p, ld, Pc0, 42);
    EXPECT_EQ(p.total().loads, 10u);
    EXPECT_EQ(p.total().hitsDepth1, 9u) << "first sighting cannot hit";
    EXPECT_DOUBLE_EQ(p.total().pctDepth1(), 90.0);
    EXPECT_DOUBLE_EQ(p.total().pctDepthN(), 90.0);
}

TEST(LocalityProfiler, AlternatingValuesNeedDepthTwo)
{
    ValueLocalityProfiler p(1024, 16);
    Instruction ld{.op = Opcode::LD, .rd = 3, .rs1 = 2};
    for (int i = 0; i < 20; ++i)
        load(p, ld, Pc0, (i % 2) ? 7 : 9);
    // Depth 1 never hits after warmup (value always differs from the
    // previous one); depth 16 hits from the third access on.
    EXPECT_EQ(p.total().hitsDepth1, 0u);
    EXPECT_EQ(p.total().hitsDepthN, 18u);
}

TEST(LocalityProfiler, SixteenUniqueValuesFitDepth16)
{
    ValueLocalityProfiler p(1024, 16);
    Instruction ld{.op = Opcode::LD, .rd = 3, .rs1 = 2};
    // Two full passes over 16 distinct values.
    for (int pass = 0; pass < 2; ++pass)
        for (Word v = 0; v < 16; ++v)
            load(p, ld, Pc0, v);
    EXPECT_EQ(p.total().hitsDepthN, 16u)
        << "all of pass 2 hits: 16 values fit the history";
    // 17 distinct values thrash an LRU of 16 when accessed cyclically.
    ValueLocalityProfiler q(1024, 16);
    for (int pass = 0; pass < 2; ++pass)
        for (Word v = 0; v < 17; ++v)
            load(q, ld, Pc0, v);
    EXPECT_EQ(q.total().hitsDepthN, 0u);
}

TEST(LocalityProfiler, UntaggedTableInterference)
{
    ValueLocalityProfiler p(16, 16);
    Instruction ld{.op = Opcode::LD, .rd = 3, .rs1 = 2};
    Addr alias = Pc0 + 16 * isa::layout::InstBytes; // same entry
    load(p, ld, Pc0, 1);
    load(p, ld, alias, 1); // constructive: counts as a hit
    EXPECT_EQ(p.total().hitsDepth1, 1u);
    load(p, ld, alias, 2); // displaces
    load(p, ld, Pc0, 1);   // depth-1 miss (destructive interference)
    EXPECT_EQ(p.total().hitsDepth1, 1u);
    EXPECT_EQ(p.total().hitsDepthN, 2u) << "1 still in deep history";
}

TEST(LocalityProfiler, NonLoadsIgnored)
{
    ValueLocalityProfiler p;
    Instruction add{.op = Opcode::ADD, .rd = 3, .rs1 = 1, .rs2 = 2};
    trace::TraceRecord rec;
    rec.pc = Pc0;
    rec.inst = &add;
    p.consume(rec);
    EXPECT_EQ(p.total().loads, 0u);
}

TEST(LocalityProfiler, ClassifiesByDataClass)
{
    ValueLocalityProfiler p;
    Instruction fp{.op = Opcode::LFD, .rd = 33, .rs1 = 2,
                   .dataClass = DataClass::FpData};
    Instruction ia{.op = Opcode::LD, .rd = 3, .rs1 = 2,
                   .dataClass = DataClass::InstAddr};
    Instruction da{.op = Opcode::LD, .rd = 3, .rs1 = 2,
                   .dataClass = DataClass::DataAddr};
    load(p, fp, Pc0, 1);
    load(p, fp, Pc0, 1);
    load(p, ia, Pc0 + 4, 2);
    load(p, da, Pc0 + 8, 3);
    EXPECT_EQ(p.byClass(DataClass::FpData).loads, 2u);
    EXPECT_EQ(p.byClass(DataClass::FpData).hitsDepth1, 1u);
    EXPECT_EQ(p.byClass(DataClass::InstAddr).loads, 1u);
    EXPECT_EQ(p.byClass(DataClass::DataAddr).loads, 1u);
    EXPECT_EQ(p.byClass(DataClass::IntData).loads, 0u);
    EXPECT_EQ(p.total().loads, 4u);
}

} // namespace
} // namespace lvplib::core
