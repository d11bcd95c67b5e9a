#include "isa/program.hpp"

#include <bit>

#include "util/logging.hpp"

namespace vguard::isa {

Program::Program(std::vector<StaticInst> insts) : insts_(std::move(insts))
{
}

ProgramBuilder &
ProgramBuilder::emit(StaticInst si)
{
    insts_.push_back(si);
    return *this;
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    if (labels_.count(name))
        fatal("ProgramBuilder: duplicate label '%s'", name.c_str());
    labels_[name] = static_cast<uint32_t>(insts_.size());
    return *this;
}

#define VG_INT3(NAME, OP)                                                    \
    ProgramBuilder &ProgramBuilder::NAME(unsigned rd, unsigned ra,           \
                                         unsigned rb)                       \
    {                                                                        \
        return emit({Opcode::OP, intReg(rd), intReg(ra), intReg(rb), 0,     \
                     -1});                                                   \
    }

VG_INT3(addq, ADDQ)
VG_INT3(subq, SUBQ)
VG_INT3(and_, AND)
VG_INT3(bis, BIS)
VG_INT3(xor_, XOR)
VG_INT3(sll, SLL)
VG_INT3(srl, SRL)
VG_INT3(cmpeq, CMPEQ)
VG_INT3(cmplt, CMPLT)
VG_INT3(cmovne, CMOVNE)
VG_INT3(mulq, MULQ)
VG_INT3(divq, DIVQ)
#undef VG_INT3

ProgramBuilder &
ProgramBuilder::ldiq(unsigned rd, int64_t imm)
{
    return emit({Opcode::LDIQ, intReg(rd), kNoReg, kNoReg, imm, -1});
}

#define VG_FP3(NAME, OP)                                                     \
    ProgramBuilder &ProgramBuilder::NAME(unsigned fd, unsigned fa,           \
                                         unsigned fb)                       \
    {                                                                        \
        return emit({Opcode::OP, fpReg(fd), fpReg(fa), fpReg(fb), 0, -1}); \
    }

VG_FP3(addt, ADDT)
VG_FP3(subt, SUBT)
VG_FP3(mult, MULT)
VG_FP3(divt, DIVT)
#undef VG_FP3

ProgramBuilder &
ProgramBuilder::cvtqt(unsigned fd, unsigned ra)
{
    return emit({Opcode::CVTQT, fpReg(fd), intReg(ra), kNoReg, 0, -1});
}

ProgramBuilder &
ProgramBuilder::ldit(unsigned fd, double value)
{
    return emit({Opcode::LDIT, fpReg(fd), kNoReg, kNoReg,
                 static_cast<int64_t>(std::bit_cast<uint64_t>(value)), -1});
}

ProgramBuilder &
ProgramBuilder::ldq(unsigned rd, unsigned ra, int64_t disp)
{
    return emit({Opcode::LDQ, intReg(rd), intReg(ra), kNoReg, disp, -1});
}

ProgramBuilder &
ProgramBuilder::stq(unsigned rb, unsigned ra, int64_t disp)
{
    return emit({Opcode::STQ, kNoReg, intReg(ra), intReg(rb), disp, -1});
}

ProgramBuilder &
ProgramBuilder::ldt(unsigned fd, unsigned ra, int64_t disp)
{
    return emit({Opcode::LDT, fpReg(fd), intReg(ra), kNoReg, disp, -1});
}

ProgramBuilder &
ProgramBuilder::stt(unsigned fb, unsigned ra, int64_t disp)
{
    return emit({Opcode::STT, kNoReg, intReg(ra), fpReg(fb), disp, -1});
}

ProgramBuilder &
ProgramBuilder::emitBranch(Opcode op, uint8_t cond,
                           const std::string &target)
{
    StaticInst si{op, kNoReg, cond, kNoReg, 0, -1};
    if (op == Opcode::CALL)
        si.rd = intReg(kLinkReg);
    fixups_.emplace_back(static_cast<uint32_t>(insts_.size()), target);
    return emit(si);
}

ProgramBuilder &
ProgramBuilder::br(const std::string &target)
{
    return emitBranch(Opcode::BR, kNoReg, target);
}

ProgramBuilder &
ProgramBuilder::beq(unsigned ra, const std::string &target)
{
    return emitBranch(Opcode::BEQ, intReg(ra), target);
}

ProgramBuilder &
ProgramBuilder::bne(unsigned ra, const std::string &target)
{
    return emitBranch(Opcode::BNE, intReg(ra), target);
}

ProgramBuilder &
ProgramBuilder::blt(unsigned ra, const std::string &target)
{
    return emitBranch(Opcode::BLT, intReg(ra), target);
}

ProgramBuilder &
ProgramBuilder::bge(unsigned ra, const std::string &target)
{
    return emitBranch(Opcode::BGE, intReg(ra), target);
}

ProgramBuilder &
ProgramBuilder::call(const std::string &target)
{
    return emitBranch(Opcode::CALL, kNoReg, target);
}

ProgramBuilder &
ProgramBuilder::ret()
{
    return emit(
        {Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1});
}

ProgramBuilder &
ProgramBuilder::nop()
{
    return emit({Opcode::NOP, kNoReg, kNoReg, kNoReg, 0, -1});
}

ProgramBuilder &
ProgramBuilder::halt()
{
    return emit({Opcode::HALT, kNoReg, kNoReg, kNoReg, 0, -1});
}

Program
ProgramBuilder::build()
{
    for (const auto &[idx, name] : fixups_) {
        auto it = labels_.find(name);
        if (it == labels_.end())
            fatal("ProgramBuilder: undefined label '%s'", name.c_str());
        insts_[idx].target = static_cast<int32_t>(it->second);
    }
    fixups_.clear();
    return Program(insts_);
}

} // namespace vguard::isa
