/**
 * @file
 * VRISC: the compact load/store ISA executed by the vguard cycle core.
 *
 * VRISC mirrors the structural mix of the Alpha code the paper studies
 * (Fig. 8's stressmark uses ldt/divt/stt/ldq/cmovne/stq): integer and
 * floating-point pipelines, long-latency unpipelined divides, loads,
 * stores and a full set of control transfers (conditional branches,
 * calls and returns so the BTB/RAS of Table 1 are exercised).
 *
 * 32 integer registers (r31 hard-wired zero, r26 is the link register)
 * and 32 FP registers (f31 zero). Memory operands are int-register +
 * immediate displacement.
 */

#ifndef VGUARD_ISA_OPCODES_HPP
#define VGUARD_ISA_OPCODES_HPP

#include <cstdint>

namespace vguard::isa {

/** Structural class an instruction executes on (Table 1 resources). */
enum class OpClass : uint8_t {
    Nop,      ///< consumes a slot, no unit
    IntAlu,   ///< 8 units, 1-cycle
    IntMult,  ///< shared int mult/div units, pipelined
    IntDiv,   ///< shared int mult/div units, unpipelined, long
    FpAdd,    ///< 4 FP ALUs
    FpMult,   ///< shared FP mult/div units, pipelined
    FpDiv,    ///< shared FP mult/div units, unpipelined, long
    Load,     ///< memory port + D-cache
    Store,    ///< memory port + D-cache (at commit)
    Branch,   ///< control transfer (executes on an IntAlu)
};

/** VRISC opcodes. */
enum class Opcode : uint8_t {
    NOP,
    HALT,    ///< stop the program (core drains then halts)

    // Integer ALU
    ADDQ, SUBQ, AND, BIS, XOR, SLL, SRL, CMPEQ, CMPLT,
    CMOVNE,  ///< rd = (ra != 0) ? rb : rd
    LDIQ,    ///< rd = immediate

    // Integer multiply / divide
    MULQ, DIVQ,

    // Floating point (operate on the FP register file)
    ADDT, SUBT, MULT, DIVT, CVTQT,
    LDIT,    ///< fd = immediate (bit pattern of a double)

    // Memory
    LDQ,     ///< rd  = mem[ra + disp]
    STQ,     ///< mem[ra + disp] = rb
    LDT,     ///< fd  = mem[ra + disp]
    STT,     ///< mem[ra + disp] = fb

    // Control
    BR,      ///< unconditional direct
    BEQ, BNE, BLT, BGE,   ///< conditional on ra vs 0
    CALL,    ///< r26 = return index; jump to target
    RET,     ///< jump to r26

    NumOpcodes
};

/** Number of architectural integer (and FP) registers. */
constexpr unsigned kNumIntRegs = 32;
constexpr unsigned kNumFpRegs = 32;
/** Unified architectural register ids: FP regs follow int regs. */
constexpr unsigned kNumArchRegs = kNumIntRegs + kNumFpRegs;
/** Hard-wired zero registers. */
constexpr uint8_t kZeroReg = 31;
constexpr uint8_t kFpZeroReg = 31;
/** Link register used by CALL/RET. */
constexpr uint8_t kLinkReg = 26;
/** "No register" marker in StaticInst fields. */
constexpr uint8_t kNoReg = 0xff;

/** Structural class of an opcode. */
OpClass opClass(Opcode op);

/** True for any control transfer. */
bool isControl(Opcode op);
/** True for BEQ/BNE/BLT/BGE. */
bool isCondBranch(Opcode op);

} // namespace vguard::isa

#endif // VGUARD_ISA_OPCODES_HPP
