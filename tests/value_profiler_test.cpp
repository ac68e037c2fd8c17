/**
 * @file
 * Tests for the all-instruction value-locality profiler (future-work
 * extension) and for the destValue field the interpreter records.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/value_profiler.hh"
#include "isa/assembler.hh"
#include "vm/interpreter.hh"

namespace lvplib::core
{
namespace
{

using isa::Assembler;
using isa::Cond;
using isa::FuType;

TEST(DestValue, InterpreterRecordsResultValues)
{
    Assembler a;
    a.li(3, 7);
    a.addi(4, 3, 1);
    a.mull(5, 3, 4);
    a.halt();
    isa::Program p = a.finish();

    class Capture : public trace::TraceSink
    {
      public:
        void
        consume(const trace::TraceRecord &r) override
        {
            recs.push_back(r);
        }
        std::vector<trace::TraceRecord> recs;
    } cap;
    vm::Interpreter in(p);
    in.run(&cap);
    ASSERT_EQ(cap.recs.size(), 4u);
    EXPECT_EQ(cap.recs[0].destValue, 7u);
    EXPECT_EQ(cap.recs[1].destValue, 8u);
    EXPECT_EQ(cap.recs[2].destValue, 56u);
}

TEST(AllValueProfiler, CountsEveryProducer)
{
    Assembler a;
    a.li(7, 10);
    a.li(3, 0);
    a.label("loop");
    a.addi(3, 3, 0);   // same value every iteration: locality 100%
    a.addi(7, 7, -1);  // counts down: locality 0% at depth 1
    a.cmpi(0, 7, 0);
    a.bc(Cond::GT, 0, "loop");
    a.halt();
    isa::Program p = a.finish();

    vm::Interpreter in(p);
    AllValueLocalityProfiler prof;
    in.run(&prof);

    const auto &scfx = prof.byFu(FuType::SCFX);
    EXPECT_GT(scfx.loads, 0u);
    // r3's addi always produces 0 (high locality); r7's countdown
    // never repeats; cmpi produces GT until the last iteration.
    EXPECT_GT(scfx.pctDepth1(), 40.0);
    EXPECT_LT(scfx.pctDepth1(), 90.0);
    EXPECT_EQ(prof.total().loads, scfx.loads)
        << "only SCFX produces register values in this program";
}

TEST(AllValueProfiler, SkipsBranchesStoresAndCalls)
{
    Assembler a;
    a.dataLabel("w");
    a.dspace(8);
    a.la(10, "w");
    a.li(3, 1);
    a.std_(3, 0, 10);  // no dest
    a.bl("f");         // dest is LR: skipped by design
    a.halt();
    a.label("f");
    a.blr();
    isa::Program p = a.finish();

    vm::Interpreter in(p);
    AllValueLocalityProfiler prof;
    in.run(&prof);
    // Producers: the la sequence (li chains) + li r3 only.
    EXPECT_EQ(prof.byFu(FuType::BRU).loads, 0u);
    EXPECT_GT(prof.byFu(FuType::SCFX).loads, 0u);
}

TEST(AllValueProfiler, LoadsCountedUnderLsu)
{
    Assembler a;
    a.dataLabel("w");
    a.dd(5);
    a.la(10, "w");
    a.li(7, 4);
    a.label("loop");
    a.ld(3, 0, 10);
    a.addi(7, 7, -1);
    a.cmpi(0, 7, 0);
    a.bc(Cond::GT, 0, "loop");
    a.halt();
    isa::Program p = a.finish();

    vm::Interpreter in(p);
    AllValueLocalityProfiler prof;
    in.run(&prof);
    EXPECT_EQ(prof.byFu(FuType::LSU).loads, 4u);
    EXPECT_EQ(prof.byFu(FuType::LSU).hitsDepth1, 3u)
        << "the constant load repeats after its first sighting";
}

} // namespace
} // namespace lvplib::core
