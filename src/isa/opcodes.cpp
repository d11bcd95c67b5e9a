#include "isa/opcodes.hpp"

#include "util/logging.hpp"

namespace vguard::isa {

OpClass
opClass(Opcode op)
{
    switch (op) {
      case Opcode::NOP:
      case Opcode::HALT:
        return OpClass::Nop;
      case Opcode::ADDQ:
      case Opcode::SUBQ:
      case Opcode::AND:
      case Opcode::BIS:
      case Opcode::XOR:
      case Opcode::SLL:
      case Opcode::SRL:
      case Opcode::CMPEQ:
      case Opcode::CMPLT:
      case Opcode::CMOVNE:
      case Opcode::LDIQ:
        return OpClass::IntAlu;
      case Opcode::MULQ:
        return OpClass::IntMult;
      case Opcode::DIVQ:
        return OpClass::IntDiv;
      case Opcode::ADDT:
      case Opcode::SUBT:
      case Opcode::CVTQT:
      case Opcode::LDIT:
        return OpClass::FpAdd;
      case Opcode::MULT:
        return OpClass::FpMult;
      case Opcode::DIVT:
        return OpClass::FpDiv;
      case Opcode::LDQ:
      case Opcode::LDT:
        return OpClass::Load;
      case Opcode::STQ:
      case Opcode::STT:
        return OpClass::Store;
      case Opcode::BR:
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::CALL:
      case Opcode::RET:
        return OpClass::Branch;
      default:
        panic("opClass: bad opcode %d", static_cast<int>(op));
    }
}

bool
isControl(Opcode op)
{
    return opClass(op) == OpClass::Branch;
}

bool
isCondBranch(Opcode op)
{
    return op == Opcode::BEQ || op == Opcode::BNE || op == Opcode::BLT ||
           op == Opcode::BGE;
}

} // namespace vguard::isa
