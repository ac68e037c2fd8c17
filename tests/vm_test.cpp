/**
 * @file
 * Unit tests for the virtual machine: sparse memory semantics and the
 * functional interpreter's execution of every instruction class,
 * including the trace records it emits.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "isa/assembler.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "vm/interpreter.hh"
#include "vm/memory.hh"

namespace lvplib
{
namespace
{

using isa::Assembler;
using isa::Cond;
using isa::DataClass;
using isa::Opcode;
using isa::Program;
using vm::Interpreter;
using vm::SparseMemory;

/** Collects every record for inspection. */
class RecordingSink : public trace::TraceSink
{
  public:
    void
    consume(const trace::TraceRecord &rec) override
    {
        records.push_back(rec);
    }
    std::vector<trace::TraceRecord> records;
};

TEST(SparseMemory, UntouchedReadsAsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.readByte(0x12345), 0);
    EXPECT_EQ(m.read(0xdead0000, 8), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(SparseMemory, LittleEndianRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.readByte(0x1000), 0x88);
    EXPECT_EQ(m.readByte(0x1007), 0x11);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    Addr boundary = SparseMemory::PageSize - 4;
    m.write(boundary, 0xaabbccdd11223344ull, 8);
    EXPECT_EQ(m.read(boundary, 8), 0xaabbccdd11223344ull);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(SparseMemory, ReadString)
{
    SparseMemory m;
    const char *s = "hello";
    for (unsigned i = 0; i <= 5; ++i)
        m.writeByte(0x2000 + i, static_cast<std::uint8_t>(s[i]));
    EXPECT_EQ(m.readString(0x2000), "hello");
}

/** Assemble, run to completion, and return the interpreter. */
Program
makeProgram(const std::function<void(Assembler &)> &body)
{
    Assembler a;
    body(a);
    return a.finish();
}

TEST(Interpreter, ArithmeticAndImmediates)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 10);
        a.li(4, 3);
        a.add(5, 3, 4);   // 13
        a.sub(6, 3, 4);   // 7
        a.mull(7, 3, 4);  // 30
        a.divd(8, 3, 4);  // 3
        a.remd(9, 3, 4);  // 1
        a.sldi(10, 3, 2); // 40
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(5), 13u);
    EXPECT_EQ(in.reg(6), 7u);
    EXPECT_EQ(in.reg(7), 30u);
    EXPECT_EQ(in.reg(8), 3u);
    EXPECT_EQ(in.reg(9), 1u);
    EXPECT_EQ(in.reg(10), 40u);
}

TEST(Interpreter, SignedDivisionAndShift)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, -20);
        a.li(4, 3);
        a.divd(5, 3, 4);   // -6 (truncation toward zero)
        a.sradi(6, 3, 2);  // -5
        a.li(7, 0);
        a.divd(8, 3, 7);   // division by zero yields 0
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(static_cast<SWord>(in.reg(5)), -6);
    EXPECT_EQ(static_cast<SWord>(in.reg(6)), -5);
    EXPECT_EQ(in.reg(8), 0u);
}

TEST(Interpreter, R0IsHardwiredZero)
{
    Program p = makeProgram([](Assembler &a) {
        a.addi(0, 0, 42); // write to r0: discarded
        a.add(3, 0, 0);
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(0), 0u);
    EXPECT_EQ(in.reg(3), 0u);
}

TEST(Interpreter, CompareAndConditionalBranch)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 5);
        a.li(4, 9);
        a.cmp(0, 3, 4); // 5 < 9 -> LT
        a.bc(Cond::LT, 0, "less");
        a.li(5, 111);
        a.halt();
        a.label("less");
        a.li(5, 222);
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(5), 222u);
}

TEST(Interpreter, UnsignedCompare)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, -1); // 0xffff... = huge unsigned
        a.li(4, 1);
        a.cmpu(0, 3, 4);
        a.bc(Cond::GT, 0, "big");
        a.li(5, 0);
        a.halt();
        a.label("big");
        a.li(5, 1);
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(5), 1u);
}

TEST(Interpreter, LoopExecutesExactCount)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 0);
        a.label("loop");
        a.addi(3, 3, 1);
        a.cmpi(0, 3, 10);
        a.bc(Cond::LT, 0, "loop");
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(3), 10u);
}

TEST(Interpreter, CallAndReturnThroughLr)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 1);
        a.bl("fn");
        a.addi(3, 3, 100); // runs after return
        a.halt();
        a.label("fn");
        a.addi(3, 3, 10);
        a.blr();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(3), 111u);
}

TEST(Interpreter, IndirectCallThroughCtrSetsLr)
{
    Assembler a;
    // Jump table in data holds the address of "fn", patched below.
    Addr slot = a.dataLabel("fnptr");
    a.dspace(8);
    a.la(4, "fnptr");
    a.ld(4, 0, 4, DataClass::InstAddr);
    a.mtctr(4);
    a.bctrl();
    a.addi(3, 3, 1); // after return
    a.halt();
    a.label("fn");
    a.li(3, 40);
    a.blr();
    a.pokeWord(slot, a.symbolAddr("fn"));
    Program p = a.finish();
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(3), 41u);
}

TEST(Interpreter, LoadsAndStoresAllSizes)
{
    Assembler a;
    Addr base = a.dataLabel("buf");
    a.dspace(32);
    (void)base;
    a.la(3, "buf");
    a.li(4, 0x7f);
    a.stb(4, 0, 3);
    a.li(5, -2);
    a.stw(5, 8, 3);
    a.li(6, 1234567);
    a.std_(6, 16, 3);
    a.lbz(7, 0, 3);
    a.lwz(8, 8, 3);
    a.ld(9, 16, 3);
    a.halt();
    Program p = a.finish();
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(7), 0x7fu);
    EXPECT_EQ(in.reg(8), 0xfffffffeu) << "lwz zero-extends 32 bits";
    EXPECT_EQ(in.reg(9), 1234567u);
}

TEST(Interpreter, FloatingPoint)
{
    Assembler a;
    Addr c = a.dataLabel("consts");
    a.dfloat(2.5);
    a.dfloat(1.5);
    (void)c;
    a.la(3, "consts");
    a.lfd(1, 0, 3);
    a.lfd(2, 8, 3);
    a.fadd(3, 1, 2);  // 4.0
    a.fmul(4, 1, 2);  // 3.75
    a.fdiv(5, 1, 2);  // 1.666..
    a.fsqrt(6, 3);    // 2.0
    a.fneg(7, 1);     // -2.5
    a.fcmp(0, 1, 2);  // 2.5 > 1.5 -> GT
    a.bc(Cond::GT, 0, "gt");
    a.li(10, 0);
    a.halt();
    a.label("gt");
    a.li(10, 1);
    a.halt();
    Program p = a.finish();
    Interpreter in(p);
    in.run();
    EXPECT_DOUBLE_EQ(in.fprAsDouble(3), 4.0);
    EXPECT_DOUBLE_EQ(in.fprAsDouble(4), 3.75);
    EXPECT_DOUBLE_EQ(in.fprAsDouble(6), 2.0);
    EXPECT_DOUBLE_EQ(in.fprAsDouble(7), -2.5);
    EXPECT_EQ(in.reg(10), 1u);
}

TEST(Interpreter, FpIntConversions)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, -7);
        a.fcfid(1, 3);   // -7.0
        a.fctid(4, 1);   // -7
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_DOUBLE_EQ(in.fprAsDouble(1), -7.0);
    EXPECT_EQ(static_cast<SWord>(in.reg(4)), -7);
}

TEST(Interpreter, TraceRecordsCarryLoadValueAndAddress)
{
    Assembler a;
    Addr d = a.dataLabel("x");
    a.dd(777);
    a.la(3, "x");
    a.ld(4, 0, 3);
    a.halt();
    Program p = a.finish();
    Interpreter in(p);
    RecordingSink sink;
    in.run(&sink);
    // Find the load record.
    bool found = false;
    for (const auto &r : sink.records) {
        if (r.inst->load()) {
            EXPECT_EQ(r.effAddr, d);
            EXPECT_EQ(r.value, 777u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Interpreter, TraceRecordsBranchOutcomes)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 1);
        a.cmpi(0, 3, 5);
        a.bc(Cond::GT, 0, "nowhere"); // not taken
        a.label("nowhere");
        a.halt();
    });
    Interpreter in(p);
    RecordingSink sink;
    in.run(&sink);
    const auto &bc = sink.records[sink.records.size() - 2];
    ASSERT_TRUE(bc.inst->branch());
    EXPECT_FALSE(bc.taken);
    EXPECT_EQ(bc.nextPc, bc.pc + 4);
}

TEST(Interpreter, SequenceNumbersAreDense)
{
    Program p = makeProgram([](Assembler &a) {
        a.nop();
        a.nop();
        a.halt();
    });
    Interpreter in(p);
    RecordingSink sink;
    in.run(&sink);
    ASSERT_EQ(sink.records.size(), 3u);
    for (std::size_t i = 0; i < sink.records.size(); ++i)
        EXPECT_EQ(sink.records[i].seq, i);
}

TEST(Interpreter, MaxInstructionsBoundsExecution)
{
    Program p = makeProgram([](Assembler &a) {
        a.label("forever");
        a.b("forever");
    });
    Interpreter in(p);
    auto n = in.run(nullptr, 100);
    EXPECT_EQ(n, 100u);
    EXPECT_FALSE(in.halted());
}

TEST(Interpreter, ResetRestoresInitialState)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 9);
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(3), 9u);
    in.reset();
    EXPECT_EQ(in.reg(3), 0u);
    EXPECT_FALSE(in.halted());
    EXPECT_EQ(in.pc(), p.entry());
    in.run();
    EXPECT_EQ(in.reg(3), 9u);
}


TEST(Interpreter, AllConditionCodesBehave)
{
    // One branch per condition, against each of LT/EQ/GT compares.
    struct Case
    {
        Cond cond;
        int a, b;
        bool taken;
    };
    const Case cases[] = {
        {Cond::LT, 1, 2, true},  {Cond::LT, 2, 2, false},
        {Cond::LT, 3, 2, false}, {Cond::GT, 3, 2, true},
        {Cond::GT, 2, 2, false}, {Cond::GT, 1, 2, false},
        {Cond::EQ, 2, 2, true},  {Cond::EQ, 1, 2, false},
        {Cond::GE, 2, 2, true},  {Cond::GE, 3, 2, true},
        {Cond::GE, 1, 2, false}, {Cond::LE, 2, 2, true},
        {Cond::LE, 1, 2, true},  {Cond::LE, 3, 2, false},
        {Cond::NE, 1, 2, true},  {Cond::NE, 2, 2, false},
    };
    for (const auto &c : cases) {
        Program p = makeProgram([&](Assembler &a) {
            a.li(3, c.a);
            a.li(4, c.b);
            a.cmp(0, 3, 4);
            a.bc(c.cond, 0, "taken");
            a.li(5, 0);
            a.halt();
            a.label("taken");
            a.li(5, 1);
            a.halt();
        });
        Interpreter in(p);
        in.run();
        EXPECT_EQ(in.reg(5), c.taken ? 1u : 0u)
            << isa::condName(c.cond) << " with " << c.a << " vs " << c.b;
    }
}

TEST(Interpreter, FcmpDrivesAllConditions)
{
    Program p = makeProgram([](Assembler &a) {
        a.li(3, 3);
        a.li(4, 7);
        a.fcfid(1, 3);
        a.fcfid(2, 4);
        a.fcmp(0, 1, 2); // 3.0 < 7.0
        a.bc(Cond::LE, 0, "le");
        a.li(5, 0);
        a.halt();
        a.label("le");
        a.fcmp(1, 2, 2); // equal
        a.bc(Cond::GE, 1, "ge");
        a.li(5, 1);
        a.halt();
        a.label("ge");
        a.li(5, 2);
        a.halt();
    });
    Interpreter in(p);
    in.run();
    EXPECT_EQ(in.reg(5), 2u);
}

TEST(Interpreter, StackPointerInitialized)
{
    Program p = makeProgram([](Assembler &a) { a.halt(); });
    Interpreter in(p);
    EXPECT_EQ(in.reg(1), isa::layout::StackTop);
}

TEST(Interpreter, EmptyProgramThrowsInvalidPcOnBothCores)
{
    // An empty program's entry pc is its code end: run() must report
    // it as a typed error, not fetch past the (empty) code array.
    Program p;
    for (auto mode :
         {vm::DispatchMode::LegacySwitch, vm::DispatchMode::Predecoded}) {
        Interpreter in(p);
        in.setDispatch(mode);
        RecordingSink sink;
        try {
            in.run(&sink);
            ADD_FAILURE() << "expected SimError, mode "
                          << static_cast<int>(mode);
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::InvalidPc) << e.what();
        }
        EXPECT_TRUE(sink.records.empty());
        EXPECT_EQ(in.retired(), 0u);
    }
}

} // namespace
} // namespace lvplib
