/**
 * @file
 * The VLISA functional interpreter. Executes a Program to completion
 * and streams one TraceRecord per retired instruction to a TraceSink —
 * this is lvplib's stand-in for the paper's TRIP6000/ATOM tracing
 * tools (user-state instruction, address, and value traces).
 */

#ifndef LVPLIB_VM_INTERPRETER_HH
#define LVPLIB_VM_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program.hh"
#include "trace/trace.hh"
#include "vm/memory.hh"

namespace lvplib::vm
{

/** How Interpreter::run() dispatches instructions. */
enum class DispatchMode : std::uint8_t
{
    /** Decode operands from the Instruction on every step via the
     *  original switch core. Kept as the differential-testing oracle
     *  (tests/fuzz_interpreter_test.cpp). */
    LegacySwitch,
    /** Execute from the predecoded DecodedInst array through a dense
     *  switch (the default). */
    Predecoded,
};

/**
 * One statically predecoded instruction. Everything run() needs per
 * step — operands, cached destination register, pre-resolved BC
 * condition test, immediate — lives in this flat 32-byte record, so
 * the predecoded core touches neither Instruction::destReg() nor
 * condHolds() on the hot path. Built once per Interpreter from the
 * bound Program; `src` points back at the program's Instruction so
 * emitted TraceRecords are indistinguishable from the legacy core's.
 */
struct DecodedInst
{
    isa::Opcode op;
    RegIndex rd;
    RegIndex rs1;
    RegIndex rs2;
    RegIndex dest;       ///< Instruction::destReg(), resolved once
    std::uint8_t crMask; ///< BC: CR bit under test (CrLt/CrGt/CrEq)
    bool crExpect;       ///< BC: taken when (cr & crMask) != 0 equals this
    std::int64_t imm;
    const isa::Instruction *src; ///< backing instruction (rec.inst)
};

/** Functional execution engine for one Program. */
class Interpreter
{
  public:
    /**
     * Bind to @p prog and initialize machine state: data image loaded,
     * r1 = stack top, r2 = the "__toc" symbol when the program defines
     * one, pc = entry. The static code is predecoded here, once.
     */
    explicit Interpreter(const isa::Program &prog);

    /** Reinitialize registers, memory, and pc. */
    void reset();

    /**
     * Run until HALT or until @p max_instrs retire. Each retired
     * instruction is passed to @p sink when non-null; sink->finish()
     * is called when the program halts.
     *
     * Records are accumulated into an internal retire buffer and
     * handed to sink->consumeBatch() (one virtual call per ~1 Ki
     * instructions) in retirement order. A sink that throws mid-batch
     * (e.g. WatchdogSink) observes exactly the records it would have
     * seen record-at-a-time; the interpreter itself may have retired
     * further instructions into the undelivered tail of the buffer,
     * which callers discard along with the failed run.
     *
     * Both dispatch modes produce bit-identical record streams,
     * register files, and memory images; they differ only in speed.
     *
     * @return Number of instructions retired by this call.
     * @throws SimError(InvalidPc) when entered, not halted, at a pc
     * outside the program (an empty program has no valid entry), or
     * when an instruction transfers control outside it.
     */
    std::uint64_t run(trace::TraceSink *sink = nullptr,
                      std::uint64_t max_instrs =
                          std::numeric_limits<std::uint64_t>::max());

    /** Single-step one instruction (no finish() call). */
    void step(trace::TraceSink *sink = nullptr);

    /** Select the execution core used by run(). */
    void setDispatch(DispatchMode m) { dispatch_ = m; }

    /** The core run() currently uses. */
    DispatchMode dispatch() const { return dispatch_; }

    /** True once HALT has retired. */
    bool halted() const { return halted_; }

    /** Current pc. */
    Addr pc() const { return pc_; }

    /** Unified-space register read (r0 reads as zero). */
    Word reg(RegIndex r) const;

    /** Unified-space register write (writes to r0 are ignored). */
    void setReg(RegIndex r, Word v);

    /** FPR read as a double (f is FPR numbering, 0..31). */
    double fprAsDouble(RegIndex f) const;

    /** Simulated memory, for test inspection and input poking. */
    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    /** Instructions retired since reset. */
    std::uint64_t retired() const { return retired_; }

    /** The bound program. */
    const isa::Program &program() const { return prog_; }

  private:
    void execute(const isa::Instruction &inst, trace::TraceRecord &rec);

    /** Execute and retire one instruction into @p rec. */
    void stepInto(trace::TraceRecord &rec);

    /** Build dcode_ from the bound program. */
    void predecode();

    std::uint64_t runLegacy(trace::TraceSink *sink,
                            std::uint64_t max_instrs);
    std::uint64_t runPredecoded(trace::TraceSink *sink,
                                std::uint64_t max_instrs);

    const isa::Program &prog_;
    SparseMemory mem_;
    std::array<Word, isa::NumRegs> regs_{};
    std::vector<DecodedInst> dcode_;
    Addr pc_;
    std::uint64_t retired_ = 0;
    bool halted_ = false;
    DispatchMode dispatch_ = DispatchMode::Predecoded;
};

} // namespace lvplib::vm

#endif // LVPLIB_VM_INTERPRETER_HH
