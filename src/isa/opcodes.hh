/**
 * @file
 * The VLISA instruction set: opcodes, operand classes, register-space
 * layout, and functional-unit classes.
 *
 * VLISA is a small 64-bit load/store RISC designed so that the program
 * idioms the paper identifies as sources of value locality (Section 2)
 * appear naturally: 16-bit immediates force large constants into
 * memory; a PowerPC-style condition-register file makes branches
 * depend on compare results; link/count special registers are reached
 * through multi-cycle moves; indirect calls and computed branches load
 * their targets from tables.
 */

#ifndef LVPLIB_ISA_OPCODES_HH
#define LVPLIB_ISA_OPCODES_HH

#include <cstdint>

#include "util/logging.hh"
#include "util/types.hh"

namespace lvplib::isa
{

/**
 * Unified register name space used for dependence tracking.
 *
 *   0..31   general-purpose registers (r0 reads as zero)
 *   32..63  floating-point registers
 *   64..71  condition-register fields cr0..cr7
 *   72      link register (LR)
 *   73      count register (CTR)
 */
constexpr RegIndex NumGpr = 32;
constexpr RegIndex NumFpr = 32;
constexpr RegIndex NumCr = 8;
constexpr RegIndex FprBase = 32;
constexpr RegIndex CrBase = 64;
constexpr RegIndex RegLr = 72;
constexpr RegIndex RegCtr = 73;
constexpr RegIndex NumRegs = 74;
constexpr RegIndex NoReg = 0xff;

/** True for r1..r31 / all FPRs etc. — any register that holds state. */
constexpr bool
isZeroReg(RegIndex r)
{
    return r == 0;
}

constexpr bool
isFpr(RegIndex r)
{
    return r >= FprBase && r < FprBase + NumFpr;
}

constexpr bool
isCr(RegIndex r)
{
    return r >= CrBase && r < CrBase + NumCr;
}

/** Functional-unit class, matching the PowerPC 620's unit mix. */
enum class FuType : std::uint8_t
{
    SCFX, ///< single-cycle fixed point (two units on the 620)
    MCFX, ///< multi-cycle fixed point (mul/div/mfspr/mtspr)
    FPU,  ///< floating point
    LSU,  ///< load/store
    BRU,  ///< branch
};

constexpr int NumFuTypes = 5;

/** Human-readable FU name. */
const char *fuTypeName(FuType t);

/** VLISA opcodes. */
enum class Opcode : std::uint8_t
{
    // Single-cycle integer (SCFX)
    ADD, SUB, AND, OR, XOR, SLD, SRD, SRAD,
    ADDI, ANDI, ORI, XORI, SLDI, SRDI, SRADI,
    CMP,  ///< signed compare rs1,rs2 -> cr field
    CMPU, ///< unsigned compare
    CMPI, ///< signed compare rs1, imm -> cr field
    NOP,

    // Multi-cycle integer (MCFX)
    MULL, DIVD, REMD,
    MFLR, MTLR, MFCTR, MTCTR,

    // Floating point (FPU)
    FADD, FSUB, FMUL,   // "simple" FP
    FDIV, FSQRT,        // "complex" FP
    FCMP,               // FP compare -> cr field
    FCFID,              // int -> double convert
    FCTID,              // double -> int convert (truncating)
    FMR,                // FP register move
    FNEG, FABS,

    // Loads (LSU)
    LD,   ///< 64-bit load
    LWZ,  ///< 32-bit zero-extended load
    LBZ,  ///< 8-bit zero-extended load
    LFD,  ///< 64-bit FP load

    // Stores (LSU)
    STD, STW, STB, STFD,

    // Branches (BRU)
    B,    ///< unconditional relative branch
    BC,   ///< conditional branch on a cr field
    BL,   ///< call: branch and set LR
    BLR,  ///< return: branch to LR
    BCTR, ///< computed branch to CTR
    BCTRL,///< indirect call through CTR (sets LR)

    HALT, ///< stop the program

    NumOpcodes,
};

/** Condition codes tested by BC against a cr field. */
enum class Cond : std::uint8_t
{
    LT, GT, EQ, GE, LE, NE,
};

/** Bits a compare writes into a cr field. */
constexpr Word CrLt = 0x4;
constexpr Word CrGt = 0x2;
constexpr Word CrEq = 0x1;

/** Mnemonic for an opcode. */
const char *opcodeName(Opcode op);

/** Mnemonic for a condition code. */
const char *condName(Cond c);

// The opcode classifiers below sit on every timing model's
// per-record path (several calls per retired instruction), so they
// are defined inline here rather than out-of-line in instruction.cc.

/** Functional unit that executes @p op. */
constexpr FuType
fuType(Opcode op)
{
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SLD:
      case Opcode::SRD: case Opcode::SRAD: case Opcode::ADDI:
      case Opcode::ANDI: case Opcode::ORI: case Opcode::XORI:
      case Opcode::SLDI: case Opcode::SRDI: case Opcode::SRADI:
      case Opcode::CMP: case Opcode::CMPU: case Opcode::CMPI:
      case Opcode::NOP:
        return FuType::SCFX;

      case Opcode::MULL: case Opcode::DIVD: case Opcode::REMD:
      case Opcode::MFLR: case Opcode::MTLR: case Opcode::MFCTR:
      case Opcode::MTCTR:
        return FuType::MCFX;

      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FSQRT: case Opcode::FCMP:
      case Opcode::FCFID: case Opcode::FCTID: case Opcode::FMR:
      case Opcode::FNEG: case Opcode::FABS:
        return FuType::FPU;

      case Opcode::LD: case Opcode::LWZ: case Opcode::LBZ:
      case Opcode::LFD: case Opcode::STD: case Opcode::STW:
      case Opcode::STB: case Opcode::STFD:
        return FuType::LSU;

      case Opcode::B: case Opcode::BC: case Opcode::BL:
      case Opcode::BLR: case Opcode::BCTR: case Opcode::BCTRL:
      case Opcode::HALT:
        return FuType::BRU;

      case Opcode::NumOpcodes:
        break;
    }
    lvp_panic("fuType: bad opcode %d", static_cast<int>(op));
}

/** True for the four load opcodes. */
inline bool
isLoad(Opcode op)
{
    return op == Opcode::LD || op == Opcode::LWZ || op == Opcode::LBZ ||
           op == Opcode::LFD;
}

/** True for the four store opcodes. */
inline bool
isStore(Opcode op)
{
    return op == Opcode::STD || op == Opcode::STW || op == Opcode::STB ||
           op == Opcode::STFD;
}

/** True for any branch opcode. */
inline bool
isBranch(Opcode op)
{
    return op == Opcode::B || op == Opcode::BC || op == Opcode::BL ||
           op == Opcode::BLR || op == Opcode::BCTR ||
           op == Opcode::BCTRL;
}

/** True for conditional branches only. */
inline bool
isCondBranch(Opcode op)
{
    return op == Opcode::BC;
}

/** True for branches whose target comes from LR/CTR. */
inline bool
isIndirectBranch(Opcode op)
{
    return op == Opcode::BLR || op == Opcode::BCTR ||
           op == Opcode::BCTRL;
}

/** True for opcodes executed by the FPU. */
inline bool
isFp(Opcode op)
{
    return fuType(op) == FuType::FPU || op == Opcode::LFD ||
           op == Opcode::STFD;
}

} // namespace lvplib::isa

#endif // LVPLIB_ISA_OPCODES_HH
