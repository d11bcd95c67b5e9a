/**
 * @file
 * Static VRISC instructions, programs, and an assembler-style builder.
 *
 * Register encoding inside StaticInst uses *unified* architectural ids:
 * integer r0..r31 map to 0..31 and FP f0..f31 map to 32..63. This lets
 * the pipeline's rename/dependence logic treat both files uniformly.
 */

#ifndef VGUARD_ISA_PROGRAM_HPP
#define VGUARD_ISA_PROGRAM_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/opcodes.hpp"

namespace vguard::isa {

/** Unified id of integer register @p r. */
constexpr uint8_t
intReg(unsigned r)
{
    return static_cast<uint8_t>(r);
}

/** Unified id of FP register @p f. */
constexpr uint8_t
fpReg(unsigned f)
{
    return static_cast<uint8_t>(kNumIntRegs + f);
}

/** Unified ids of the two hard-wired zero registers. */
constexpr uint8_t kZeroUnified = kZeroReg;
constexpr uint8_t kFpZeroUnified = kNumIntRegs + kFpZeroReg;

/** True if a unified register id is one of the zero registers. */
constexpr bool
isZeroReg(uint8_t unified)
{
    return unified == kZeroUnified || unified == kFpZeroUnified;
}

/** One static instruction. */
struct StaticInst
{
    Opcode op = Opcode::NOP;
    uint8_t rd = kNoReg;   ///< unified destination register
    uint8_t rs1 = kNoReg;  ///< unified source 1 (mem base for ld/st)
    uint8_t rs2 = kNoReg;  ///< unified source 2 (store data register)
    int64_t imm = 0;       ///< immediate / displacement / double bits
    int32_t target = -1;   ///< control-transfer target (program index)

    OpClass cls() const { return opClass(op); }
    /** True when the destination is also read (CMOVNE). */
    bool destIsSource() const { return op == Opcode::CMOVNE; }

    /** Collect valid non-zero-register sources (up to 3). */
    unsigned
    sources(uint8_t out[3]) const
    {
        unsigned n = 0;
        if (rs1 != kNoReg && !isZeroReg(rs1))
            out[n++] = rs1;
        if (rs2 != kNoReg && !isZeroReg(rs2))
            out[n++] = rs2;
        if (destIsSource() && rd != kNoReg && !isZeroReg(rd))
            out[n++] = rd;
        return n;
    }
};

/** An assembled program: a flat instruction vector. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::vector<StaticInst> insts);

    const StaticInst &at(uint32_t idx) const { return insts_[idx]; }
    uint32_t size() const { return static_cast<uint32_t>(insts_.size()); }
    bool empty() const { return insts_.empty(); }

  private:
    std::vector<StaticInst> insts_;
};

/**
 * Fluent assembler. Register arguments are file-local indices (0..31);
 * FP variants apply the unified offset internally. Branch targets are
 * labels resolved (with forward references) at build().
 */
class ProgramBuilder
{
  public:
    ProgramBuilder &label(const std::string &name);

    // --- integer ALU -----------------------------------------------
    ProgramBuilder &addq(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &subq(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &and_(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &bis(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &xor_(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &sll(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &srl(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &cmpeq(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &cmplt(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &cmovne(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &ldiq(unsigned rd, int64_t imm);

    // --- integer mult/div ------------------------------------------
    ProgramBuilder &mulq(unsigned rd, unsigned ra, unsigned rb);
    ProgramBuilder &divq(unsigned rd, unsigned ra, unsigned rb);

    // --- floating point --------------------------------------------
    ProgramBuilder &addt(unsigned fd, unsigned fa, unsigned fb);
    ProgramBuilder &subt(unsigned fd, unsigned fa, unsigned fb);
    ProgramBuilder &mult(unsigned fd, unsigned fa, unsigned fb);
    ProgramBuilder &divt(unsigned fd, unsigned fa, unsigned fb);
    ProgramBuilder &cvtqt(unsigned fd, unsigned ra);
    ProgramBuilder &ldit(unsigned fd, double value);

    // --- memory ----------------------------------------------------
    ProgramBuilder &ldq(unsigned rd, unsigned ra, int64_t disp);
    ProgramBuilder &stq(unsigned rb, unsigned ra, int64_t disp);
    ProgramBuilder &ldt(unsigned fd, unsigned ra, int64_t disp);
    ProgramBuilder &stt(unsigned fb, unsigned ra, int64_t disp);

    // --- control ---------------------------------------------------
    ProgramBuilder &br(const std::string &target);
    ProgramBuilder &beq(unsigned ra, const std::string &target);
    ProgramBuilder &bne(unsigned ra, const std::string &target);
    ProgramBuilder &blt(unsigned ra, const std::string &target);
    ProgramBuilder &bge(unsigned ra, const std::string &target);
    ProgramBuilder &call(const std::string &target);
    ProgramBuilder &ret();

    // --- misc ------------------------------------------------------
    ProgramBuilder &nop();
    ProgramBuilder &halt();

    /** Number of instructions emitted so far. */
    uint32_t size() const { return static_cast<uint32_t>(insts_.size()); }

    /** Resolve label references and produce the program. */
    Program build();

  private:
    ProgramBuilder &emit(StaticInst si);
    ProgramBuilder &emitBranch(Opcode op, uint8_t cond,
                               const std::string &target);

    std::vector<StaticInst> insts_;
    std::unordered_map<std::string, uint32_t> labels_;
    std::vector<std::pair<uint32_t, std::string>> fixups_;
};

} // namespace vguard::isa

#endif // VGUARD_ISA_PROGRAM_HPP
