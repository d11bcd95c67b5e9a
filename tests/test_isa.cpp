/**
 * @file
 * Unit tests for src/isa: opcode traits, program building, sparse
 * memory, and functional execution including control flow, memory and
 * the CMOVNE three-source case from the paper's stressmark loop.
 */

#include <gtest/gtest.h>

#include "isa/executor.hpp"
#include "isa/memory.hpp"
#include "isa/opcodes.hpp"
#include "isa/program.hpp"

namespace {

using namespace vguard::isa;

TEST(Opcodes, Classes)
{
    EXPECT_EQ(opClass(Opcode::ADDQ), OpClass::IntAlu);
    EXPECT_EQ(opClass(Opcode::MULQ), OpClass::IntMult);
    EXPECT_EQ(opClass(Opcode::DIVQ), OpClass::IntDiv);
    EXPECT_EQ(opClass(Opcode::ADDT), OpClass::FpAdd);
    EXPECT_EQ(opClass(Opcode::MULT), OpClass::FpMult);
    EXPECT_EQ(opClass(Opcode::DIVT), OpClass::FpDiv);
    EXPECT_EQ(opClass(Opcode::LDQ), OpClass::Load);
    EXPECT_EQ(opClass(Opcode::STT), OpClass::Store);
    EXPECT_EQ(opClass(Opcode::BEQ), OpClass::Branch);
    EXPECT_EQ(opClass(Opcode::RET), OpClass::Branch);
    EXPECT_EQ(opClass(Opcode::NOP), OpClass::Nop);
}

TEST(Opcodes, Predicates)
{
    EXPECT_TRUE(isControl(Opcode::CALL));
    EXPECT_TRUE(isCondBranch(Opcode::BGE));
    EXPECT_FALSE(isCondBranch(Opcode::BR));
}

TEST(StaticInst, SourcesSkipZeroRegs)
{
    StaticInst si{Opcode::ADDQ, intReg(1), intReg(31), intReg(2), 0, -1};
    uint8_t srcs[3];
    ASSERT_EQ(si.sources(srcs), 1u); // r31 is the zero register
    EXPECT_EQ(srcs[0], intReg(2));
}

TEST(StaticInst, CmovneReadsDest)
{
    StaticInst si{Opcode::CMOVNE, intReg(3), intReg(1), intReg(2), 0, -1};
    uint8_t srcs[3];
    ASSERT_EQ(si.sources(srcs), 3u);
    EXPECT_EQ(srcs[2], intReg(3));
}

TEST(SparseMemory, ZeroFill)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1000), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(SparseMemory, ReadBack)
{
    SparseMemory m;
    m.write(0x2008, 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.read(0x2008), 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.read(0x2010), 0u);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(SparseMemory, DoubleRoundTrip)
{
    SparseMemory m;
    m.writeDouble(0x100, 3.25);
    EXPECT_DOUBLE_EQ(m.readDouble(0x100), 3.25);
}

TEST(SparseMemory, DistantPages)
{
    SparseMemory m;
    m.write(0x0, 1);
    m.write(0x100000, 2);
    EXPECT_EQ(m.pageCount(), 2u);
    EXPECT_EQ(m.read(0x0), 1u);
    EXPECT_EQ(m.read(0x100000), 2u);
}

TEST(SparseMemory, Clear)
{
    SparseMemory m;
    m.write(0x8, 7);
    m.clear();
    EXPECT_EQ(m.read(0x8), 0u);
}

TEST(RegisterFile, ZeroRegisterSemantics)
{
    RegisterFile rf;
    rf.write(intReg(31), 99);
    EXPECT_EQ(rf.read(intReg(31)), 0u);
    rf.write(fpReg(31), 99);
    EXPECT_EQ(rf.read(fpReg(31)), 0u);
    rf.write(kNoReg, 5); // must not crash
    EXPECT_EQ(rf.read(kNoReg), 0u);
}

TEST(RegisterFile, IntFpSeparate)
{
    RegisterFile rf;
    rf.write(intReg(4), 10);
    rf.write(fpReg(4), 20);
    EXPECT_EQ(rf.read(intReg(4)), 10u);
    EXPECT_EQ(rf.read(fpReg(4)), 20u);
}

TEST(ProgramBuilder, LabelsResolveForward)
{
    ProgramBuilder b;
    b.br("end").nop().label("end").halt();
    const Program p = b.build();
    EXPECT_EQ(p.at(0).target, 2);
}

TEST(ProgramBuilder, UndefinedLabelFatal)
{
    ProgramBuilder b;
    b.br("nowhere");
    EXPECT_EXIT(b.build(), ::testing::ExitedWithCode(1), "undefined");
}

TEST(ProgramBuilder, DuplicateLabelFatal)
{
    ProgramBuilder b;
    b.label("x");
    EXPECT_EXIT(b.label("x"), ::testing::ExitedWithCode(1), "duplicate");
}

Program
arithProgram()
{
    ProgramBuilder b;
    b.ldiq(1, 6)
        .ldiq(2, 7)
        .mulq(3, 1, 2)   // r3 = 42
        .addq(4, 3, 2)   // r4 = 49
        .subq(5, 4, 1)   // r5 = 43
        .divq(6, 3, 2)   // r6 = 6
        .halt();
    return b.build();
}

TEST(Executor, IntegerArithmetic)
{
    const Program p = arithProgram();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(3)), 42u);
    EXPECT_EQ(ex.regs().read(intReg(4)), 49u);
    EXPECT_EQ(ex.regs().read(intReg(5)), 43u);
    EXPECT_EQ(ex.regs().read(intReg(6)), 6u);
}

TEST(Executor, LogicalAndShifts)
{
    ProgramBuilder b;
    b.ldiq(1, 0b1100)
        .ldiq(2, 0b1010)
        .and_(3, 1, 2)
        .bis(4, 1, 2)
        .xor_(5, 1, 2)
        .ldiq(6, 2)
        .sll(7, 1, 6)
        .srl(8, 1, 6)
        .halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(3)), 0b1000u);
    EXPECT_EQ(ex.regs().read(intReg(4)), 0b1110u);
    EXPECT_EQ(ex.regs().read(intReg(5)), 0b0110u);
    EXPECT_EQ(ex.regs().read(intReg(7)), 0b110000u);
    EXPECT_EQ(ex.regs().read(intReg(8)), 0b11u);
}

TEST(Executor, Comparisons)
{
    ProgramBuilder b;
    b.ldiq(1, 5)
        .ldiq(2, 5)
        .ldiq(3, -1)
        .cmpeq(4, 1, 2)
        .cmplt(5, 3, 1)
        .cmplt(6, 1, 3)
        .halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(4)), 1u);
    EXPECT_EQ(ex.regs().read(intReg(5)), 1u);
    EXPECT_EQ(ex.regs().read(intReg(6)), 0u);
}

TEST(Executor, CmovneBothWays)
{
    ProgramBuilder b;
    b.ldiq(1, 1)       // cond true
        .ldiq(2, 77)
        .ldiq(3, 5)
        .cmovne(3, 1, 2) // r3 = 77
        .ldiq(4, 0)      // cond false
        .ldiq(5, 33)
        .cmovne(5, 4, 2) // r5 stays 33
        .halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(3)), 77u);
    EXPECT_EQ(ex.regs().read(intReg(5)), 33u);
}

TEST(Executor, DivideByZeroYieldsZero)
{
    ProgramBuilder b;
    b.ldiq(1, 10).divq(2, 1, 31).halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(2)), 0u);
}

TEST(Executor, FloatingPoint)
{
    ProgramBuilder b;
    b.ldit(1, 1.5)
        .ldit(2, 2.0)
        .addt(3, 1, 2)
        .subt(4, 1, 2)
        .mult(5, 1, 2)
        .divt(6, 1, 2)
        .halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_DOUBLE_EQ(ex.regs().readDouble(fpReg(3)), 3.5);
    EXPECT_DOUBLE_EQ(ex.regs().readDouble(fpReg(4)), -0.5);
    EXPECT_DOUBLE_EQ(ex.regs().readDouble(fpReg(5)), 3.0);
    EXPECT_DOUBLE_EQ(ex.regs().readDouble(fpReg(6)), 0.75);
}

TEST(Executor, Cvtqt)
{
    ProgramBuilder b;
    b.ldiq(1, -3).cvtqt(2, 1).halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_DOUBLE_EQ(ex.regs().readDouble(fpReg(2)), -3.0);
}

TEST(Executor, LoadStoreRoundTrip)
{
    ProgramBuilder b;
    b.ldiq(1, 0x1000)
        .ldiq(2, 1234)
        .stq(2, 1, 8)    // mem[0x1008] = 1234
        .ldq(3, 1, 8)    // r3 = 1234
        .ldit(4, 9.5)
        .stt(4, 1, 16)
        .ldt(5, 1, 16)
        .halt();
    Executor ex(b.build());
    ExecInfo storeInfo{};
    while (!ex.halted()) {
        const auto info = ex.step();
        if (info.si && info.si->op == Opcode::STQ)
            storeInfo = info;
    }
    EXPECT_EQ(storeInfo.effAddr, 0x1008u);
    EXPECT_EQ(ex.regs().read(intReg(3)), 1234u);
    EXPECT_DOUBLE_EQ(ex.regs().readDouble(fpReg(5)), 9.5);
    EXPECT_EQ(ex.mem().read(0x1008), 1234u);
}

TEST(Executor, LoopExecutesExactCount)
{
    // r1 = 10; do { r2++; r1--; } while (r1 != 0)
    ProgramBuilder b;
    b.ldiq(1, 10)
        .ldiq(3, 1)
        .label("top")
        .addq(2, 2, 3)
        .subq(1, 1, 3)
        .bne(1, "top")
        .halt();
    Executor ex(b.build());
    uint64_t branchTaken = 0, branchNotTaken = 0;
    while (!ex.halted()) {
        const auto info = ex.step();
        if (info.si && info.si->op == Opcode::BNE)
            (info.taken ? branchTaken : branchNotTaken)++;
    }
    EXPECT_EQ(ex.regs().read(intReg(2)), 10u);
    EXPECT_EQ(branchTaken, 9u);
    EXPECT_EQ(branchNotTaken, 1u);
}

TEST(Executor, CallAndReturn)
{
    ProgramBuilder b;
    b.call("func")       // 0
        .ldiq(2, 55)     // 1 (after return)
        .halt()          // 2
        .label("func")
        .ldiq(1, 44)     // 3
        .ret();          // 4
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(1)), 44u);
    EXPECT_EQ(ex.regs().read(intReg(2)), 55u);
    EXPECT_EQ(ex.regs().read(intReg(kLinkReg)), 1u);
}

TEST(Executor, BranchOutcomes)
{
    ProgramBuilder b;
    b.ldiq(1, 0)
        .beq(1, "a")     // taken
        .halt()
        .label("a")
        .ldiq(2, -5)
        .blt(2, "b")     // taken
        .halt()
        .label("b")
        .bge(2, "c")     // not taken
        .ldiq(3, 1)
        .halt()
        .label("c")
        .halt();
    Executor ex(b.build());
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(3)), 1u);
}

TEST(Executor, RunsOffEndHalts)
{
    ProgramBuilder b;
    b.nop().nop();
    Executor ex(b.build());
    ex.step();
    const auto info = ex.step();
    EXPECT_TRUE(info.halted);
    EXPECT_TRUE(ex.halted());
}

TEST(Executor, StepAfterHaltIsIdempotent)
{
    ProgramBuilder b;
    b.halt();
    Executor ex(b.build());
    ex.step();
    const uint64_t count = ex.instsExecuted();
    const auto info = ex.step();
    EXPECT_TRUE(info.halted);
    EXPECT_EQ(ex.instsExecuted(), count);
}

TEST(Executor, ResetRestartsProgram)
{
    const Program p = arithProgram();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    ex.reset();
    EXPECT_FALSE(ex.halted());
    EXPECT_EQ(ex.pc(), 0u);
    EXPECT_EQ(ex.regs().read(intReg(3)), 0u);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.regs().read(intReg(3)), 42u);
}

TEST(Executor, ActivityHigherForTogglingOperands)
{
    // Alternating bit patterns (the stressmark trick) must yield a
    // higher switching factor than all-zero operands.
    ProgramBuilder quiet, noisy;
    quiet.ldiq(1, 0).ldiq(2, 0).xor_(3, 1, 2).halt();
    noisy.ldiq(1, 0x5555555555555555ll)
        .ldiq(2, static_cast<int64_t>(0xaaaaaaaaaaaaaaaaull))
        .xor_(3, 1, 2)
        .halt();

    auto xorActivity = [](const Program &p) {
        Executor ex(p);
        float act = 0.0f;
        while (!ex.halted()) {
            const auto info = ex.step();
            if (info.si && info.si->op == Opcode::XOR)
                act = info.activity;
        }
        return act;
    };
    EXPECT_GT(xorActivity(noisy.build()), xorActivity(quiet.build()) + 0.5f);
}

TEST(Executor, EffAddrUsesBaseRegister)
{
    ProgramBuilder b;
    b.ldiq(1, 0x4000).ldq(2, 1, 0x18).halt();
    Executor ex(b.build());
    ExecInfo loadInfo{};
    while (!ex.halted()) {
        const auto i = ex.step();
        if (i.si && i.si->op == Opcode::LDQ)
            loadInfo = i;
    }
    EXPECT_EQ(loadInfo.effAddr, 0x4018u);
}

} // namespace
