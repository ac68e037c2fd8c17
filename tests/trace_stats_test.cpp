/**
 * @file
 * Tests for the trace-statistics sink and full-opcode disassembler
 * coverage.
 */

#include <gtest/gtest.h>

#include <set>

#include "isa/assembler.hh"
#include "isa/instruction.hh"
#include "trace/trace_stats.hh"
#include "vm/interpreter.hh"

namespace lvplib
{
namespace
{

using isa::Assembler;
using isa::Cond;
using isa::DataClass;
using isa::Opcode;

TEST(TraceStats, CountsByCategory)
{
    Assembler a;
    a.dataLabel("w");
    a.dd(3);
    a.la(10, "w");              // li sequence: SCFX
    a.ld(3, 0, 10, DataClass::DataAddr);
    a.lfd(1, 0, 10);
    a.std_(3, 0, 10);
    a.cmpi(0, 3, 0);
    a.bc(Cond::GT, 0, "skip"); // taken (w = 3 > 0)
    a.nop();
    a.label("skip");
    a.halt();
    isa::Program p = a.finish();

    vm::Interpreter in(p);
    trace::TraceStats st;
    in.run(&st);
    EXPECT_EQ(st.loads(), 2u);
    EXPECT_EQ(st.stores(), 1u);
    EXPECT_EQ(st.branches(), 1u) << "halt is not a branch";
    EXPECT_EQ(st.takenBranches(), 1u);
    EXPECT_EQ(st.loadClassCount(DataClass::DataAddr), 1u);
    EXPECT_EQ(st.loadClassCount(DataClass::FpData), 1u);
    EXPECT_EQ(st.fuCount(isa::FuType::LSU), 3u);
    EXPECT_GT(st.fuCount(isa::FuType::SCFX), 0u);
    EXPECT_EQ(st.instructions(), in.retired());
}

TEST(TraceStats, ClearResets)
{
    trace::TraceStats st;
    isa::Instruction nop{.op = Opcode::NOP};
    trace::TraceRecord rec;
    rec.inst = &nop;
    st.consume(rec);
    EXPECT_EQ(st.instructions(), 1u);
    st.clear();
    EXPECT_EQ(st.instructions(), 0u);
}

TEST(Disasm, EveryOpcodeRendersDistinctly)
{
    std::set<std::string> seen;
    for (int op = 0; op < static_cast<int>(Opcode::NumOpcodes); ++op) {
        isa::Instruction inst{.op = static_cast<Opcode>(op),
                              .rd = 3,
                              .rs1 = 4,
                              .rs2 = 5,
                              .imm = 16};
        std::string text = isa::disassemble(inst);
        EXPECT_FALSE(text.empty());
        EXPECT_EQ(text.find('?'), std::string::npos)
            << "opcode " << op << " rendered as '" << text << "'";
        seen.insert(text);
    }
    // Register-field reuse makes some renderings collide only if the
    // mnemonic is identical, which would be a table bug.
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(Opcode::NumOpcodes));
}

} // namespace
} // namespace lvplib
