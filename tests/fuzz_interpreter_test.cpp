/**
 * @file
 * Differential fuzzing of the functional interpreter: random
 * straight-line programs are executed both by vm::Interpreter and by
 * an independently-written oracle evaluator; every register and every
 * touched memory byte must agree. Parameterized over RNG seeds.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "isa/assembler.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "vm/interpreter.hh"

namespace lvplib
{
namespace
{

using isa::Assembler;
using isa::Opcode;
using isa::Program;

/** The oracle: an independent, simple-minded evaluator. */
class Oracle
{
  public:
    std::array<Word, isa::NumRegs> regs{};
    std::map<Addr, std::uint8_t> mem;

    Word
    readMem(Addr a, unsigned size)
    {
        Word v = 0;
        for (unsigned i = 0; i < size; ++i) {
            auto it = mem.find(a + i);
            std::uint8_t b = it == mem.end() ? 0 : it->second;
            v |= static_cast<Word>(b) << (8 * i);
        }
        return v;
    }

    void
    writeMem(Addr a, Word v, unsigned size)
    {
        for (unsigned i = 0; i < size; ++i)
            mem[a + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    Word r(RegIndex i) const { return i == 0 ? 0 : regs[i]; }
    void
    w(RegIndex i, Word v)
    {
        if (i != 0)
            regs[i] = v;
    }
    double fp(RegIndex i) const { return std::bit_cast<double>(regs[i]); }
    void
    wfp(RegIndex i, double v)
    {
        regs[i] = std::bit_cast<Word>(v);
    }

    void
    step(const isa::Instruction &in)
    {
        auto s = [&](Word a, Word b) {
            return static_cast<SWord>(a) < static_cast<SWord>(b)
                       ? isa::CrLt
                       : static_cast<SWord>(a) > static_cast<SWord>(b)
                             ? isa::CrGt
                             : isa::CrEq;
        };
        switch (in.op) {
          case Opcode::ADD: w(in.rd, r(in.rs1) + r(in.rs2)); break;
          case Opcode::SUB: w(in.rd, r(in.rs1) - r(in.rs2)); break;
          case Opcode::AND: w(in.rd, r(in.rs1) & r(in.rs2)); break;
          case Opcode::OR: w(in.rd, r(in.rs1) | r(in.rs2)); break;
          case Opcode::XOR: w(in.rd, r(in.rs1) ^ r(in.rs2)); break;
          case Opcode::SLD:
            w(in.rd, r(in.rs2) >= 64 ? 0
                                     : r(in.rs1) << (r(in.rs2) & 63));
            break;
          case Opcode::SRD:
            w(in.rd, r(in.rs2) >= 64 ? 0
                                     : r(in.rs1) >> (r(in.rs2) & 63));
            break;
          case Opcode::SRAD: {
            Word sh = r(in.rs2) >= 63 ? 63 : (r(in.rs2) & 63);
            w(in.rd, static_cast<Word>(
                         static_cast<SWord>(r(in.rs1)) >> sh));
            break;
          }
          case Opcode::ADDI:
            w(in.rd, r(in.rs1) + static_cast<Word>(in.imm));
            break;
          case Opcode::ANDI:
            w(in.rd, r(in.rs1) & (static_cast<Word>(in.imm) & 0xffff));
            break;
          case Opcode::ORI:
            w(in.rd, r(in.rs1) | (static_cast<Word>(in.imm) & 0xffff));
            break;
          case Opcode::XORI:
            w(in.rd, r(in.rs1) ^ (static_cast<Word>(in.imm) & 0xffff));
            break;
          case Opcode::SLDI: w(in.rd, r(in.rs1) << in.imm); break;
          case Opcode::SRDI: w(in.rd, r(in.rs1) >> in.imm); break;
          case Opcode::SRADI:
            w(in.rd, static_cast<Word>(static_cast<SWord>(r(in.rs1)) >>
                                       in.imm));
            break;
          case Opcode::MULL: w(in.rd, r(in.rs1) * r(in.rs2)); break;
          case Opcode::DIVD: {
            auto d = static_cast<SWord>(r(in.rs2));
            w(in.rd, d == 0 ? 0
                            : static_cast<Word>(
                                  static_cast<SWord>(r(in.rs1)) / d));
            break;
          }
          case Opcode::REMD: {
            auto d = static_cast<SWord>(r(in.rs2));
            w(in.rd, d == 0 ? r(in.rs1)
                            : static_cast<Word>(
                                  static_cast<SWord>(r(in.rs1)) % d));
            break;
          }
          case Opcode::CMP: w(in.rd, s(r(in.rs1), r(in.rs2))); break;
          case Opcode::CMPU:
            w(in.rd, r(in.rs1) < r(in.rs2)   ? isa::CrLt
                     : r(in.rs1) > r(in.rs2) ? isa::CrGt
                                             : isa::CrEq);
            break;
          case Opcode::CMPI:
            w(in.rd, s(r(in.rs1), static_cast<Word>(in.imm)));
            break;
          case Opcode::FADD: wfp(in.rd, fp(in.rs1) + fp(in.rs2)); break;
          case Opcode::FSUB: wfp(in.rd, fp(in.rs1) - fp(in.rs2)); break;
          case Opcode::FMUL: wfp(in.rd, fp(in.rs1) * fp(in.rs2)); break;
          case Opcode::FDIV:
            wfp(in.rd, fp(in.rs2) == 0.0 ? 0.0
                                         : fp(in.rs1) / fp(in.rs2));
            break;
          case Opcode::FSQRT:
            wfp(in.rd, fp(in.rs1) < 0.0 ? 0.0 : std::sqrt(fp(in.rs1)));
            break;
          case Opcode::FCFID:
            wfp(in.rd, static_cast<double>(
                           static_cast<SWord>(r(in.rs1))));
            break;
          case Opcode::FCTID: {
            double v = fp(in.rs1);
            SWord out;
            if (std::isnan(v))
                out = 0;
            else if (v >= 0x1p63)
                out = std::numeric_limits<SWord>::max();
            else if (v < -0x1p63)
                out = std::numeric_limits<SWord>::min();
            else
                out = static_cast<SWord>(v);
            w(in.rd, static_cast<Word>(out));
            break;
          }
          case Opcode::LD:
            w(in.rd, readMem(r(in.rs1) + static_cast<Word>(in.imm), 8));
            break;
          case Opcode::LWZ:
            w(in.rd, readMem(r(in.rs1) + static_cast<Word>(in.imm), 4));
            break;
          case Opcode::LBZ:
            w(in.rd, readMem(r(in.rs1) + static_cast<Word>(in.imm), 1));
            break;
          case Opcode::STD:
            writeMem(r(in.rs1) + static_cast<Word>(in.imm), r(in.rs2),
                     8);
            break;
          case Opcode::STW:
            writeMem(r(in.rs1) + static_cast<Word>(in.imm), r(in.rs2),
                     4);
            break;
          case Opcode::STB:
            writeMem(r(in.rs1) + static_cast<Word>(in.imm), r(in.rs2),
                     1);
            break;
          default:
            FAIL() << "oracle fed an unexpected opcode";
        }
    }
};

class InterpreterFuzz : public ::testing::TestWithParam<int>
{
};

/** Build the per-seed random straight-line program (shared by the
 *  oracle test and the dispatch-core differential test). */
Program
randomProgram(int seed)
{
    Rng rng(static_cast<std::uint64_t>(seed) * 6364136223846793005ull +
            1442695040888963407ull);

    Assembler a;
    Addr scratch = a.dataLabel("scratch");
    a.dspace(512);
    (void)scratch;

    // Fixed registers: r20 = scratch base. Working set: r3..r15 and
    // f-register images in r24..r28 via FP ops on FPRs 1..5.
    a.la(20, "scratch");
    std::vector<isa::Instruction> body;

    auto gpr = [&] { return static_cast<RegIndex>(3 + rng.below(13)); };
    auto fpr = [&] {
        return static_cast<RegIndex>(isa::FprBase + 1 + rng.below(5));
    };

    // Seed some register values.
    for (RegIndex r = 3; r <= 15; ++r)
        a.li(r, static_cast<std::int64_t>(rng.next() >> 8));
    for (int f = 1; f <= 5; ++f)
        a.fcfid(static_cast<RegIndex>(f), gpr());

    const int n = 400;
    for (int i = 0; i < n; ++i) {
        switch (rng.below(26)) {
          case 0: a.add(gpr(), gpr(), gpr()); break;
          case 1: a.sub(gpr(), gpr(), gpr()); break;
          case 2: a.and_(gpr(), gpr(), gpr()); break;
          case 3: a.or_(gpr(), gpr(), gpr()); break;
          case 4: a.xor_(gpr(), gpr(), gpr()); break;
          case 5: a.sld(gpr(), gpr(), gpr()); break;
          case 6: a.srd(gpr(), gpr(), gpr()); break;
          case 7: a.srad(gpr(), gpr(), gpr()); break;
          case 8: a.addi(gpr(), gpr(), rng.range(-32768, 32767)); break;
          case 9: a.andi(gpr(), gpr(), rng.range(0, 65535)); break;
          case 10: a.ori(gpr(), gpr(), rng.range(0, 65535)); break;
          case 11: a.xori(gpr(), gpr(), rng.range(0, 65535)); break;
          case 12:
            a.sldi(gpr(), gpr(), static_cast<unsigned>(rng.below(64)));
            break;
          case 13:
            a.srdi(gpr(), gpr(), static_cast<unsigned>(rng.below(64)));
            break;
          case 14:
            a.sradi(gpr(), gpr(), static_cast<unsigned>(rng.below(64)));
            break;
          case 15: a.mull(gpr(), gpr(), gpr()); break;
          case 16: a.divd(gpr(), gpr(), gpr()); break;
          case 17: a.remd(gpr(), gpr(), gpr()); break;
          case 18:
            a.cmpi(static_cast<unsigned>(rng.below(8)), gpr(),
                   rng.range(-100, 100));
            break;
          case 19: {
            auto sz = rng.below(3);
            auto disp = static_cast<std::int64_t>(rng.below(64)) * 8;
            if (sz == 0) a.ld(gpr(), disp, 20);
            else if (sz == 1) a.lwz(gpr(), disp, 20);
            else a.lbz(gpr(), disp, 20);
            break;
          }
          case 20: {
            auto sz = rng.below(3);
            auto disp = static_cast<std::int64_t>(rng.below(64)) * 8;
            if (sz == 0) a.std_(gpr(), disp, 20);
            else if (sz == 1) a.stw(gpr(), disp, 20);
            else a.stb(gpr(), disp, 20);
            break;
          }
          case 21: {
            auto fd = static_cast<RegIndex>(1 + rng.below(5));
            auto f1 = static_cast<RegIndex>(1 + rng.below(5));
            auto f2 = static_cast<RegIndex>(1 + rng.below(5));
            switch (rng.below(4)) {
              case 0: a.fadd(fd, f1, f2); break;
              case 1: a.fsub(fd, f1, f2); break;
              case 2: a.fmul(fd, f1, f2); break;
              default: a.fdiv(fd, f1, f2); break;
            }
            break;
          }
          case 22:
            a.fsqrt(static_cast<RegIndex>(1 + rng.below(5)),
                    static_cast<RegIndex>(1 + rng.below(5)));
            break;
          case 23:
            a.fcfid(static_cast<RegIndex>(1 + rng.below(5)), gpr());
            break;
          case 24: a.fctid(gpr(), static_cast<RegIndex>(
                                      1 + rng.below(5)));
            break;
          default: a.cmp(static_cast<unsigned>(rng.below(8)), gpr(),
                         gpr());
            break;
        }
        (void)fpr;
    }
    a.halt();
    return a.finish();
}

TEST_P(InterpreterFuzz, RandomStraightLineProgramsAgree)
{
    Program p = randomProgram(GetParam());

    // Reference run: oracle over the same instruction list, skipping
    // the prologue that the assembler emitted for la/li (the oracle
    // replays EVERY instruction, so it handles those too).
    vm::Interpreter interp(p);
    Oracle oracle;
    oracle.regs[1] = isa::layout::StackTop;
    for (std::size_t i = 0; i < p.size() - 1; ++i) // all but halt
        oracle.step(p.at(i));
    interp.run();
    ASSERT_TRUE(interp.halted());

    for (RegIndex r = 0; r < isa::NumRegs; ++r)
        ASSERT_EQ(interp.reg(r), oracle.r(r)) << "register " << int(r);
    for (const auto &[addr, byte] : oracle.mem)
        ASSERT_EQ(interp.memory().readByte(addr), byte)
            << "memory byte at " << std::hex << addr;
}

TEST_P(InterpreterFuzz, DispatchCoresProduceIdenticalRuns)
{
    // Differential check of the two dispatch cores on the same random
    // program: the predecoded core must emit the exact same trace
    // stream as the legacy switch oracle (every field, destValue
    // included) and end with the same architectural state.
    Program p = randomProgram(GetParam());

    struct Capture : trace::TraceSink
    {
        std::vector<trace::TraceRecord> recs;
        void
        consume(const trace::TraceRecord &rec) override
        {
            recs.push_back(rec);
        }
    };

    struct Run
    {
        std::vector<trace::TraceRecord> recs;
        std::array<Word, isa::NumRegs> regs;
    };
    std::vector<Run> runs;
    for (auto mode :
         {vm::DispatchMode::LegacySwitch, vm::DispatchMode::Predecoded}) {
        vm::Interpreter interp(p);
        interp.setDispatch(mode);
        Capture cap;
        std::uint64_t n = interp.run(&cap);
        ASSERT_TRUE(interp.halted());
        ASSERT_EQ(n, cap.recs.size());
        Run r;
        r.recs = std::move(cap.recs);
        for (RegIndex i = 0; i < isa::NumRegs; ++i)
            r.regs[i] = interp.reg(i);
        runs.push_back(std::move(r));
    }

    for (std::size_t m = 1; m < runs.size(); ++m) {
        ASSERT_EQ(runs[0].recs.size(), runs[m].recs.size());
        for (std::size_t i = 0; i < runs[0].recs.size(); ++i) {
            const auto &a = runs[0].recs[i];
            const auto &b = runs[m].recs[i];
            ASSERT_EQ(a.seq, b.seq) << "mode " << m << " record " << i;
            ASSERT_EQ(a.pc, b.pc) << "mode " << m << " record " << i;
            ASSERT_EQ(a.inst, b.inst) << "mode " << m << " record " << i;
            ASSERT_EQ(a.effAddr, b.effAddr)
                << "mode " << m << " record " << i;
            ASSERT_EQ(a.value, b.value)
                << "mode " << m << " record " << i;
            ASSERT_EQ(a.destValue, b.destValue)
                << "mode " << m << " record " << i;
            ASSERT_EQ(a.taken, b.taken)
                << "mode " << m << " record " << i;
            ASSERT_EQ(a.nextPc, b.nextPc)
                << "mode " << m << " record " << i;
        }
        ASSERT_EQ(runs[0].regs, runs[m].regs) << "mode " << m;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterFuzz,
                         ::testing::Range(0, 24));

} // namespace
} // namespace lvplib
