#include "vm/interpreter.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.hh"

namespace lvplib::vm
{

using isa::Cond;
using isa::Instruction;
using isa::Opcode;
using namespace isa::layout;

Interpreter::Interpreter(const isa::Program &prog) : prog_(prog)
{
    predecode();
    reset();
}

void
Interpreter::reset()
{
    regs_.fill(0);
    mem_.clear();
    mem_.loadImage(prog_);
    regs_[1] = StackTop;
    if (prog_.hasSymbol("__toc"))
        regs_[2] = prog_.symbol("__toc");
    pc_ = prog_.entry();
    retired_ = 0;
    halted_ = false;
}

void
Interpreter::predecode()
{
    dcode_.clear();
    dcode_.reserve(prog_.code().size());
    for (const Instruction &inst : prog_.code()) {
        DecodedInst d{};
        d.op = inst.op;
        d.rd = inst.rd;
        d.rs1 = inst.rs1;
        d.rs2 = inst.rs2;
        d.dest = inst.destReg();
        d.imm = inst.imm;
        d.src = &inst;
        // BC's condition test collapses to one mask-and-compare:
        // taken = ((cr & crMask) != 0) == crExpect, mirroring
        // condHolds() below.
        d.crMask = 0;
        d.crExpect = true;
        if (inst.op == Opcode::BC) {
            switch (inst.cond) {
              case Cond::LT: d.crMask = isa::CrLt; break;
              case Cond::GT: d.crMask = isa::CrGt; break;
              case Cond::EQ: d.crMask = isa::CrEq; break;
              case Cond::GE: d.crMask = isa::CrLt; d.crExpect = false;
                break;
              case Cond::LE: d.crMask = isa::CrGt; d.crExpect = false;
                break;
              case Cond::NE: d.crMask = isa::CrEq; d.crExpect = false;
                break;
            }
        }
        dcode_.push_back(d);
    }
}

Word
Interpreter::reg(RegIndex r) const
{
    lvp_dassert(r < isa::NumRegs, "reg %u", r);
    return r == 0 ? 0 : regs_[r];
}

void
Interpreter::setReg(RegIndex r, Word v)
{
    lvp_dassert(r < isa::NumRegs, "reg %u", r);
    if (r != 0)
        regs_[r] = v;
}

double
Interpreter::fprAsDouble(RegIndex f) const
{
    return std::bit_cast<double>(reg(static_cast<RegIndex>(
        isa::FprBase + f)));
}

namespace
{

/** Retire-buffer capacity for the batched run() loop (~64 KiB of
 *  records: large enough to amortize the virtual call, small enough
 *  to stay cache-resident). */
constexpr std::size_t RetireBatchRecords = 1024;

[[noreturn]] void
throwInvalidPc(Addr nextPc, Addr pc)
{
    // Recoverable (SimError, not fatal): a malformed program or a
    // corrupt indirect-branch target must fail this run cleanly, not
    // take down the whole experiment engine.
    throw SimError(
        ErrorKind::InvalidPc,
        detail::formatMsg(
            "control transfer to invalid pc 0x%llx from 0x%llx",
            static_cast<unsigned long long>(nextPc),
            static_cast<unsigned long long>(pc)));
}

Word
compareSigned(Word a, Word b)
{
    auto sa = static_cast<SWord>(a);
    auto sb = static_cast<SWord>(b);
    if (sa < sb)
        return isa::CrLt;
    if (sa > sb)
        return isa::CrGt;
    return isa::CrEq;
}

Word
compareUnsigned(Word a, Word b)
{
    if (a < b)
        return isa::CrLt;
    if (a > b)
        return isa::CrGt;
    return isa::CrEq;
}

bool
condHolds(Cond c, Word cr)
{
    switch (c) {
      case Cond::LT: return (cr & isa::CrLt) != 0;
      case Cond::GT: return (cr & isa::CrGt) != 0;
      case Cond::EQ: return (cr & isa::CrEq) != 0;
      case Cond::GE: return (cr & isa::CrLt) == 0;
      case Cond::LE: return (cr & isa::CrGt) == 0;
      case Cond::NE: return (cr & isa::CrEq) == 0;
    }
    return false;
}

} // namespace

std::uint64_t
Interpreter::run(trace::TraceSink *sink, std::uint64_t max_instrs)
{
    // Every control transfer is validated as it retires, so only the
    // entry pc can be invalid here (an empty program's entry is its
    // code end). Checking it once lets both cores index code without
    // a per-step bounds test.
    if (!halted_ && !prog_.validPc(pc_))
        throw SimError(
            ErrorKind::InvalidPc,
            detail::formatMsg(
                "run entered at invalid pc 0x%llx (program has %zu "
                "instructions)",
                static_cast<unsigned long long>(pc_), prog_.size()));
    if (dispatch_ == DispatchMode::LegacySwitch)
        return runLegacy(sink, max_instrs);
    return runPredecoded(sink, max_instrs);
}

std::uint64_t
Interpreter::runLegacy(trace::TraceSink *sink, std::uint64_t max_instrs)
{
    std::uint64_t n = 0;
    if (!sink) {
        trace::TraceRecord rec;
        while (!halted_ && n < max_instrs) {
            rec = trace::TraceRecord{};
            stepInto(rec);
            ++n;
        }
        return n;
    }
    std::vector<trace::TraceRecord> batch(
        static_cast<std::size_t>(std::min<std::uint64_t>(
            max_instrs, RetireBatchRecords)));
    while (!halted_ && n < max_instrs) {
        std::size_t cap = static_cast<std::size_t>(
            std::min<std::uint64_t>(max_instrs - n, batch.size()));
        std::size_t k = 0;
        while (k < cap && !halted_) {
            batch[k] = trace::TraceRecord{};
            stepInto(batch[k]);
            ++k;
        }
        n += k;
        if (k > 0)
            sink->consumeBatch(
                std::span<const trace::TraceRecord>(batch.data(), k));
    }
    if (halted_)
        sink->finish();
    return n;
}

// Operand access for the predecoded core's case arms. LVP_W preserves
// the r0-discards-writes rule; LVP_R relies on the invariant that
// regs_[0] is never written, so it stays zero without a branch.
#define LVP_R(r) regs[r]
#define LVP_W(r, v)                                                    \
    do {                                                               \
        RegIndex lvp_wr = (r);                                         \
        if (lvp_wr != 0)                                               \
            regs[lvp_wr] = (v);                                        \
    } while (0)
#define LVP_UIMM static_cast<Word>(di.imm)
#define LVP_F1 std::bit_cast<double>(LVP_R(di.rs1))
#define LVP_F2 std::bit_cast<double>(LVP_R(di.rs2))
#define LVP_WF(v) LVP_W(di.rd, std::bit_cast<Word>(v))
#define LVP_LOAD(sz)                                                   \
    rc.effAddr = LVP_R(di.rs1) + LVP_UIMM;                             \
    rc.value = mem_.read(rc.effAddr, sz);                              \
    LVP_W(di.rd, rc.value)
#define LVP_STORE(sz)                                                  \
    rc.effAddr = LVP_R(di.rs1) + LVP_UIMM;                             \
    rc.value = LVP_R(di.rs2);                                          \
    mem_.write(rc.effAddr, rc.value, sz)

std::uint64_t
Interpreter::runPredecoded(trace::TraceSink *sink,
                           std::uint64_t max_instrs)
{
    if (dcode_.size() != prog_.code().size())
        predecode();
    std::uint64_t n = 0;
    // Without a sink all records land in one reusable slot (recMask
    // masks the index to 0), matching the legacy no-sink loop's
    // single cache-hot scratch record.
    std::vector<trace::TraceRecord> batch(
        static_cast<std::size_t>(std::min<std::uint64_t>(
            max_instrs, sink ? RetireBatchRecords : 1)));
    const std::size_t recMask =
        sink ? std::numeric_limits<std::size_t>::max() : 0;
    Word *const regs = regs_.data();
    const DecodedInst *const code = dcode_.data();
    const Addr codeEnd = prog_.codeEnd();

    Addr pc = pc_;
    std::uint64_t retired = retired_;
    while (!halted_ && n < max_instrs) {
        const std::size_t cap = static_cast<std::size_t>(
            std::min<std::uint64_t>(max_instrs - n,
                                    RetireBatchRecords));
        std::size_t k = 0;
        while (k < cap && !halted_) {
            trace::TraceRecord &rc = batch[k & recMask];
            rc = trace::TraceRecord{};
            const DecodedInst &di =
                code[(pc - CodeBase) / InstBytes];
            rc.seq = retired;
            rc.pc = pc;
            rc.inst = di.src;
            Addr nextPc = pc + InstBytes;
            // Semantics mirror Interpreter::execute() bit for bit.
            switch (di.op) {
              case Opcode::ADD:
                LVP_W(di.rd, LVP_R(di.rs1) + LVP_R(di.rs2));
                break;
              case Opcode::SUB:
                LVP_W(di.rd, LVP_R(di.rs1) - LVP_R(di.rs2));
                break;
              case Opcode::AND:
                LVP_W(di.rd, LVP_R(di.rs1) & LVP_R(di.rs2));
                break;
              case Opcode::OR:
                LVP_W(di.rd, LVP_R(di.rs1) | LVP_R(di.rs2));
                break;
              case Opcode::XOR:
                LVP_W(di.rd, LVP_R(di.rs1) ^ LVP_R(di.rs2));
                break;
              case Opcode::SLD: {
                Word sb = LVP_R(di.rs2);
                LVP_W(di.rd, sb >= 64 ? 0 : LVP_R(di.rs1) << (sb & 63));
                break;
              }
              case Opcode::SRD: {
                Word sb = LVP_R(di.rs2);
                LVP_W(di.rd, sb >= 64 ? 0 : LVP_R(di.rs1) >> (sb & 63));
                break;
              }
              case Opcode::SRAD: {
                Word sb = LVP_R(di.rs2);
                LVP_W(di.rd, static_cast<Word>(
                                 static_cast<SWord>(LVP_R(di.rs1)) >>
                                 (sb >= 63 ? 63 : (sb & 63))));
                break;
              }
              case Opcode::ADDI:
                LVP_W(di.rd, LVP_R(di.rs1) + LVP_UIMM);
                break;
              case Opcode::ANDI:
                LVP_W(di.rd, LVP_R(di.rs1) & (LVP_UIMM & 0xffff));
                break;
              case Opcode::ORI:
                LVP_W(di.rd, LVP_R(di.rs1) | (LVP_UIMM & 0xffff));
                break;
              case Opcode::XORI:
                LVP_W(di.rd, LVP_R(di.rs1) ^ (LVP_UIMM & 0xffff));
                break;
              case Opcode::SLDI:
                LVP_W(di.rd, LVP_R(di.rs1) << di.imm);
                break;
              case Opcode::SRDI:
                LVP_W(di.rd, LVP_R(di.rs1) >> di.imm);
                break;
              case Opcode::SRADI:
                LVP_W(di.rd, static_cast<Word>(
                                 static_cast<SWord>(LVP_R(di.rs1)) >>
                                 di.imm));
                break;
              case Opcode::CMP:
                LVP_W(di.rd,
                      compareSigned(LVP_R(di.rs1), LVP_R(di.rs2)));
                break;
              case Opcode::CMPU:
                LVP_W(di.rd,
                      compareUnsigned(LVP_R(di.rs1), LVP_R(di.rs2)));
                break;
              case Opcode::CMPI:
                LVP_W(di.rd, compareSigned(LVP_R(di.rs1), LVP_UIMM));
                break;
              case Opcode::NOP:
                break;
              case Opcode::MULL:
                LVP_W(di.rd, LVP_R(di.rs1) * LVP_R(di.rs2));
                break;
              case Opcode::DIVD: {
                auto dv = static_cast<SWord>(LVP_R(di.rs2));
                LVP_W(di.rd, dv == 0 ? 0
                                     : static_cast<Word>(
                                           static_cast<SWord>(
                                               LVP_R(di.rs1)) /
                                           dv));
                break;
              }
              case Opcode::REMD: {
                auto dv = static_cast<SWord>(LVP_R(di.rs2));
                LVP_W(di.rd, dv == 0 ? LVP_R(di.rs1)
                                     : static_cast<Word>(
                                           static_cast<SWord>(
                                               LVP_R(di.rs1)) %
                                           dv));
                break;
              }
              case Opcode::MFLR:
                LVP_W(di.rd, LVP_R(isa::RegLr));
                break;
              case Opcode::MTLR:
                regs[isa::RegLr] = LVP_R(di.rs1);
                break;
              case Opcode::MFCTR:
                LVP_W(di.rd, LVP_R(isa::RegCtr));
                break;
              case Opcode::MTCTR:
                regs[isa::RegCtr] = LVP_R(di.rs1);
                break;
              case Opcode::FADD:
                LVP_WF(LVP_F1 + LVP_F2);
                break;
              case Opcode::FSUB:
                LVP_WF(LVP_F1 - LVP_F2);
                break;
              case Opcode::FMUL:
                LVP_WF(LVP_F1 * LVP_F2);
                break;
              case Opcode::FDIV: {
                double fb = LVP_F2;
                LVP_WF(fb == 0.0 ? 0.0 : LVP_F1 / fb);
                break;
              }
              case Opcode::FSQRT: {
                double fa = LVP_F1;
                LVP_WF(fa < 0.0 ? 0.0 : std::sqrt(fa));
                break;
              }
              case Opcode::FCMP: {
                double fa = LVP_F1;
                double fb = LVP_F2;
                LVP_W(di.rd, fa < fb   ? isa::CrLt
                             : fa > fb ? isa::CrGt
                                       : isa::CrEq);
                break;
              }
              case Opcode::FCFID:
                LVP_WF(static_cast<double>(
                    static_cast<SWord>(LVP_R(di.rs1))));
                break;
              case Opcode::FCTID: {
                // Saturating, NaN -> 0, as execute() defines it.
                double fv = LVP_F1;
                SWord out;
                if (std::isnan(fv))
                    out = 0;
                else if (fv >= 0x1p63)
                    out = std::numeric_limits<SWord>::max();
                else if (fv < -0x1p63)
                    out = std::numeric_limits<SWord>::min();
                else
                    out = static_cast<SWord>(fv);
                LVP_W(di.rd, static_cast<Word>(out));
                break;
              }
              case Opcode::FMR:
                LVP_W(di.rd, LVP_R(di.rs1));
                break;
              case Opcode::FNEG:
                LVP_WF(-LVP_F1);
                break;
              case Opcode::FABS:
                LVP_WF(std::fabs(LVP_F1));
                break;
              case Opcode::LD: LVP_LOAD(8); break;
              case Opcode::LWZ: LVP_LOAD(4); break;
              case Opcode::LBZ: LVP_LOAD(1); break;
              case Opcode::LFD: LVP_LOAD(8); break;
              case Opcode::STD: LVP_STORE(8); break;
              case Opcode::STW: LVP_STORE(4); break;
              case Opcode::STB: LVP_STORE(1); break;
              case Opcode::STFD: LVP_STORE(8); break;
              case Opcode::B:
                rc.taken = true;
                nextPc = static_cast<Addr>(di.imm);
                break;
              case Opcode::BC:
                rc.taken =
                    ((LVP_R(di.rs1) & di.crMask) != 0) == di.crExpect;
                if (rc.taken)
                    nextPc = static_cast<Addr>(di.imm);
                break;
              case Opcode::BL:
                rc.taken = true;
                regs[isa::RegLr] = pc + InstBytes;
                nextPc = static_cast<Addr>(di.imm);
                break;
              case Opcode::BLR:
                rc.taken = true;
                nextPc = LVP_R(isa::RegLr);
                break;
              case Opcode::BCTR:
                rc.taken = true;
                nextPc = LVP_R(isa::RegCtr);
                break;
              case Opcode::BCTRL:
                rc.taken = true;
                regs[isa::RegLr] = pc + InstBytes;
                nextPc = LVP_R(isa::RegCtr);
                break;
              case Opcode::HALT:
                halted_ = true;
                nextPc = pc;
                break;
              case Opcode::NumOpcodes:
                lvp_panic("bad opcode");
            }
            rc.nextPc = nextPc;
            if (nextPc != pc &&
                (nextPc < CodeBase || nextPc >= codeEnd ||
                 (nextPc - CodeBase) % InstBytes != 0) &&
                !halted_) {
                pc_ = pc;
                retired_ = retired;
                throwInvalidPc(nextPc, pc);
            }
            if (di.dest != isa::NoReg)
                rc.destValue = regs[di.dest];
            pc = nextPc;
            ++retired;
            ++k;
        }
        n += k;
        pc_ = pc;
        retired_ = retired;
        if (sink && k > 0)
            sink->consumeBatch(
                std::span<const trace::TraceRecord>(batch.data(), k));
    }
    pc_ = pc;
    retired_ = retired;
    if (sink && halted_)
        sink->finish();
    return n;
}

#undef LVP_R
#undef LVP_W
#undef LVP_UIMM
#undef LVP_F1
#undef LVP_F2
#undef LVP_WF
#undef LVP_LOAD
#undef LVP_STORE

void
Interpreter::stepInto(trace::TraceRecord &rec)
{
    lvp_assert(!halted_, "step after halt");
    const Instruction &inst = prog_.fetch(pc_);

    rec.seq = retired_;
    rec.pc = pc_;
    rec.inst = &inst;
    rec.nextPc = pc_ + InstBytes;

    execute(inst, rec);

    if (RegIndex dest = inst.destReg(); dest != isa::NoReg)
        rec.destValue = reg(dest);

    pc_ = rec.nextPc;
    ++retired_;
}

void
Interpreter::step(trace::TraceSink *sink)
{
    trace::TraceRecord rec;
    stepInto(rec);
    if (sink)
        sink->consume(rec);
}

void
Interpreter::execute(const Instruction &inst, trace::TraceRecord &rec)
{
    auto rd = [&](Word v) { setReg(inst.rd, v); };
    auto s1 = [&] { return reg(inst.rs1); };
    auto s2 = [&] { return reg(inst.rs2); };
    auto f1 = [&] { return std::bit_cast<double>(reg(inst.rs1)); };
    auto f2 = [&] { return std::bit_cast<double>(reg(inst.rs2)); };
    auto fd = [&](double v) { setReg(inst.rd, std::bit_cast<Word>(v)); };
    auto uimm = [&] { return static_cast<Word>(inst.imm); };

    switch (inst.op) {
      case Opcode::ADD: rd(s1() + s2()); break;
      case Opcode::SUB: rd(s1() - s2()); break;
      case Opcode::AND: rd(s1() & s2()); break;
      case Opcode::OR: rd(s1() | s2()); break;
      case Opcode::XOR: rd(s1() ^ s2()); break;
      case Opcode::SLD: rd(s2() >= 64 ? 0 : s1() << (s2() & 63)); break;
      case Opcode::SRD: rd(s2() >= 64 ? 0 : s1() >> (s2() & 63)); break;
      case Opcode::SRAD:
        rd(static_cast<Word>(static_cast<SWord>(s1()) >>
                             (s2() >= 63 ? 63 : (s2() & 63))));
        break;
      case Opcode::ADDI: rd(s1() + uimm()); break;
      case Opcode::ANDI: rd(s1() & (uimm() & 0xffff)); break;
      case Opcode::ORI: rd(s1() | (uimm() & 0xffff)); break;
      case Opcode::XORI: rd(s1() ^ (uimm() & 0xffff)); break;
      case Opcode::SLDI: rd(s1() << inst.imm); break;
      case Opcode::SRDI: rd(s1() >> inst.imm); break;
      case Opcode::SRADI:
        rd(static_cast<Word>(static_cast<SWord>(s1()) >> inst.imm));
        break;
      case Opcode::CMP: rd(compareSigned(s1(), s2())); break;
      case Opcode::CMPU: rd(compareUnsigned(s1(), s2())); break;
      case Opcode::CMPI: rd(compareSigned(s1(), uimm())); break;
      case Opcode::NOP: break;

      case Opcode::MULL: rd(s1() * s2()); break;
      case Opcode::DIVD: {
        auto d = static_cast<SWord>(s2());
        rd(d == 0 ? 0
                  : static_cast<Word>(static_cast<SWord>(s1()) / d));
        break;
      }
      case Opcode::REMD: {
        auto d = static_cast<SWord>(s2());
        rd(d == 0 ? s1()
                  : static_cast<Word>(static_cast<SWord>(s1()) % d));
        break;
      }
      case Opcode::MFLR: rd(reg(isa::RegLr)); break;
      case Opcode::MTLR: setReg(isa::RegLr, s1()); break;
      case Opcode::MFCTR: rd(reg(isa::RegCtr)); break;
      case Opcode::MTCTR: setReg(isa::RegCtr, s1()); break;

      case Opcode::FADD: fd(f1() + f2()); break;
      case Opcode::FSUB: fd(f1() - f2()); break;
      case Opcode::FMUL: fd(f1() * f2()); break;
      case Opcode::FDIV: fd(f2() == 0.0 ? 0.0 : f1() / f2()); break;
      case Opcode::FSQRT: fd(f1() < 0.0 ? 0.0 : std::sqrt(f1())); break;
      case Opcode::FCMP: {
        double a = f1(), b = f2();
        rd(a < b ? isa::CrLt : a > b ? isa::CrGt : isa::CrEq);
        break;
      }
      case Opcode::FCFID:
        fd(static_cast<double>(static_cast<SWord>(s1())));
        break;
      case Opcode::FCTID: {
        // Saturating conversion, as the PowerPC fctid defines it
        // (NaN converts to zero here for determinism).
        double v = f1();
        SWord out;
        if (std::isnan(v))
            out = 0;
        else if (v >= 0x1p63)
            out = std::numeric_limits<SWord>::max();
        else if (v < -0x1p63)
            out = std::numeric_limits<SWord>::min();
        else
            out = static_cast<SWord>(v);
        rd(static_cast<Word>(out));
        break;
      }
      case Opcode::FMR: rd(s1()); break;
      case Opcode::FNEG: fd(-f1()); break;
      case Opcode::FABS: fd(std::fabs(f1())); break;

      case Opcode::LD: case Opcode::LWZ: case Opcode::LBZ:
      case Opcode::LFD: {
        rec.effAddr = s1() + uimm();
        rec.value = mem_.read(rec.effAddr, inst.accessSize());
        rd(rec.value);
        break;
      }
      case Opcode::STD: case Opcode::STW: case Opcode::STB:
      case Opcode::STFD: {
        rec.effAddr = s1() + uimm();
        rec.value = s2();
        mem_.write(rec.effAddr, rec.value, inst.accessSize());
        break;
      }

      case Opcode::B:
        rec.taken = true;
        rec.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::BC:
        rec.taken = condHolds(inst.cond, reg(inst.rs1));
        if (rec.taken)
            rec.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::BL:
        rec.taken = true;
        setReg(isa::RegLr, pc_ + InstBytes);
        rec.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::BLR:
        rec.taken = true;
        rec.nextPc = reg(isa::RegLr);
        break;
      case Opcode::BCTR:
        rec.taken = true;
        rec.nextPc = reg(isa::RegCtr);
        break;
      case Opcode::BCTRL:
        rec.taken = true;
        setReg(isa::RegLr, pc_ + InstBytes);
        rec.nextPc = reg(isa::RegCtr);
        break;

      case Opcode::HALT:
        halted_ = true;
        rec.nextPc = pc_;
        break;

      case Opcode::NumOpcodes:
        lvp_panic("bad opcode");
    }

    // Recoverable (SimError, not fatal): a malformed program or a
    // corrupt indirect-branch target must fail this run cleanly, not
    // take down the whole experiment engine.
    if (rec.nextPc != pc_ && !prog_.validPc(rec.nextPc) && !halted_)
        throw SimError(
            ErrorKind::InvalidPc,
            detail::formatMsg(
                "control transfer to invalid pc 0x%llx from 0x%llx",
                static_cast<unsigned long long>(rec.nextPc),
                static_cast<unsigned long long>(pc_)));
}

} // namespace lvplib::vm
