/**
 * @file
 * Unit and integration tests for src/cpu: caches, branch prediction,
 * functional units, and the out-of-order pipeline (IPC sanity,
 * dependence stalls, memory behaviour, gating semantics).
 */

#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "cpu/branch_pred.hpp"
#include "cpu/cache.hpp"
#include "cpu/core.hpp"
#include "cpu/func_units.hpp"
#include "isa/program.hpp"
#include "util/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace {

using namespace vguard::cpu;
using namespace vguard::isa;

// ---------------------------------------------------------------- cache

TEST(Cache, HitAfterFill)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same line
    EXPECT_FALSE(c.access(0x140, false).hit); // next line
}

TEST(Cache, LruEviction)
{
    // 2 ways, 8 sets, 64B lines: three lines mapping to set 0.
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    const uint64_t a = 0x0, b = 0x400, d = 0x800; // set 0 aliases
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);     // a is MRU
    c.access(d, false);     // evicts b (LRU)
    EXPECT_TRUE(c.access(a, false).hit);
    EXPECT_FALSE(c.access(b, false).hit);
}

TEST(Cache, DirtyWriteback)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, true);    // dirty
    c.access(0x400, false);
    const auto res = c.access(0x800, false); // evicts dirty 0x0
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(res.evictedAddr, 0x0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, false);
    c.access(0x400, false);
    const auto res = c.access(0x800, false);
    EXPECT_FALSE(res.evictedDirty);
}

TEST(Cache, StatsCount)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40, false);
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_NEAR(c.stats().missRate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, FlushInvalidates)
{
    Cache c("t", CacheConfig{1024, 2, 64, 1});
    c.access(0x0, false);
    c.flush();
    EXPECT_FALSE(c.access(0x0, false).hit);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache("bad", CacheConfig{1000, 3, 60, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(MemHierarchy, LatencyChain)
{
    CpuConfig cfg;
    MemHierarchy mh(cfg);
    ActivityVector av;
    // Cold: L1 miss + L2 miss + memory.
    const unsigned cold = mh.dataAccess(0x1000, false, av);
    EXPECT_EQ(cold, cfg.dl1.latency + cfg.l2.latency + cfg.memLatency);
    // Warm L1.
    const unsigned hot = mh.dataAccess(0x1000, false, av);
    EXPECT_EQ(hot, cfg.dl1.latency);
    EXPECT_EQ(av.dcacheAccesses, 2u);
    EXPECT_EQ(av.dcacheMisses, 1u);
    EXPECT_EQ(av.l2Accesses, 1u);
    EXPECT_EQ(av.l2Misses, 1u);
}

TEST(MemHierarchy, L2HitFasterThanMemory)
{
    CpuConfig cfg;
    cfg.dl1.sizeBytes = 1024; // tiny L1 so we can evict easily
    MemHierarchy mh(cfg);
    ActivityVector av;
    mh.dataAccess(0x0, false, av); // cold fill into L1+L2
    // Evict 0x0 from L1 by touching its aliases.
    mh.dataAccess(0x400, false, av);
    mh.dataAccess(0x800, false, av);
    const unsigned lat = mh.dataAccess(0x0, false, av); // L2 hit
    EXPECT_EQ(lat, cfg.dl1.latency + cfg.l2.latency);
}

TEST(MemHierarchy, IfetchUsesIl1)
{
    CpuConfig cfg;
    MemHierarchy mh(cfg);
    ActivityVector av;
    mh.ifetch(cfg.codeBase, av);
    EXPECT_EQ(av.icacheAccesses, 1u);
    EXPECT_EQ(av.icacheMisses, 1u);
    av = ActivityVector{};
    mh.ifetch(cfg.codeBase + 4, av);
    EXPECT_EQ(av.icacheMisses, 0u);
}

// ----------------------------------------------------------- predictor

TEST(Bpred, LearnsAlwaysTaken)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BNE, kNoReg, intReg(1), kNoReg, 0, 5};
    // Train.
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(10, si, true, 5);
    const auto pred = bp.predictAndUpdate(10, si, true, 5);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.targetKnown);
    EXPECT_EQ(pred.target, 5u);
}

TEST(Bpred, LearnsAlwaysNotTaken)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BEQ, kNoReg, intReg(1), kNoReg, 0, 5};
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(10, si, false, 5);
    EXPECT_FALSE(bp.predictAndUpdate(10, si, false, 5).taken);
}

TEST(Bpred, GshareLearnsAlternating)
{
    // A strictly alternating branch is mispredicted by bimodal but
    // learned by gshare through history; the chooser should converge
    // on gshare and the tail mispredict rate should collapse.
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BNE, kNoReg, intReg(1), kNoReg, 0, 7};
    bool taken = false;
    for (int i = 0; i < 4000; ++i) {
        bp.predictAndUpdate(42, si, taken, 7);
        taken = !taken;
    }
    const auto before = bp.stats().condMispredicts;
    for (int i = 0; i < 1000; ++i) {
        bp.predictAndUpdate(42, si, taken, 7);
        taken = !taken;
    }
    const auto tail = bp.stats().condMispredicts - before;
    EXPECT_LT(tail, 50u); // < 5 % in the trained regime
}

TEST(Bpred, UnconditionalAlwaysRight)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst si{Opcode::BR, kNoReg, kNoReg, kNoReg, 0, 3};
    const auto pred = bp.predictAndUpdate(0, si, true, 3);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.targetKnown);
    EXPECT_EQ(pred.target, 3u);
}

TEST(Bpred, RasPredictsReturn)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst call{Opcode::CALL, intReg(kLinkReg), kNoReg, kNoReg, 0, 9};
    StaticInst ret{Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1};
    bp.predictAndUpdate(4, call, true, 9);
    const auto pred = bp.predictAndUpdate(12, ret, true, 5);
    EXPECT_TRUE(pred.targetKnown);
    EXPECT_EQ(pred.target, 5u); // pc of call + 1
    EXPECT_EQ(bp.stats().rasMispredicts, 0u);
}

TEST(Bpred, RasUnderflowCountsMispredict)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst ret{Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1};
    bp.predictAndUpdate(12, ret, true, 5);
    EXPECT_EQ(bp.stats().rasMispredicts, 1u);
}

TEST(Bpred, NestedCallsLifo)
{
    CpuConfig cfg;
    BranchPredictor bp(cfg);
    StaticInst call{Opcode::CALL, intReg(kLinkReg), kNoReg, kNoReg, 0, 0};
    StaticInst ret{Opcode::RET, kNoReg, intReg(kLinkReg), kNoReg, 0, -1};
    bp.predictAndUpdate(10, call, true, 100);
    bp.predictAndUpdate(100, call, true, 200);
    EXPECT_EQ(bp.predictAndUpdate(210, ret, true, 101).target, 101u);
    EXPECT_EQ(bp.predictAndUpdate(101, ret, true, 11).target, 11u);
}

// ------------------------------------------------------------ FU pool

TEST(FuPool, CapacityLimits)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    for (unsigned i = 0; i < cfg.numIntAlu; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 0));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntAlu, 0));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 1)); // freed next cycle
}

TEST(FuPool, UnpipelinedDivBlocks)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0)); // 2 units
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, 0));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, 5));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, cfg.intDivRepeat));
}

TEST(FuPool, MultAndDivShareUnits)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0));
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, 0));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntMult, 0));
}

TEST(FuPool, BusyCountTracksOccupancy)
{
    CpuConfig cfg;
    FuncUnitPool pool(cfg);
    pool.tryIssue(OpClass::FpDiv, 0);
    EXPECT_EQ(pool.busyCount(FuGroup::FpMultDiv, 0), 1u);
    EXPECT_EQ(pool.busyCount(FuGroup::FpMultDiv, cfg.fpDivRepeat), 0u);
}

TEST(FuPool, BranchesUseIntAlu)
{
    EXPECT_EQ(fuGroupOf(OpClass::Branch), FuGroup::IntAlu);
    EXPECT_EQ(fuGroupOf(OpClass::Load), FuGroup::MemPort);
}

// ----------------------------------------------------------- pipeline

// Run a core until it halts (bounded) and return stats.
CoreStats
runToHalt(OoOCore &core, uint64_t maxCycles = 2'000'000)
{
    while (!core.halted() && core.now() < maxCycles)
        core.cycle();
    EXPECT_TRUE(core.halted()) << "core did not drain";
    return core.stats();
}

// Looped blocks so the I-cache warms up after the first iteration
// (straight-line megaprograms would measure cold I-misses instead of
// pipeline behaviour).
Program
independentAdds(int iters, int blockLen = 40)
{
    ProgramBuilder b;
    b.ldiq(1, 1).ldiq(2, 2).ldiq(9, iters);
    b.label("top");
    for (int i = 0; i < blockLen; ++i)
        b.addq(10 + (i % 16), 1, 2);
    b.subq(9, 9, 1).bne(9, "top").halt();
    return b.build();
}

Program
dependentChain(int iters, int blockLen = 40)
{
    ProgramBuilder b;
    b.ldiq(1, 1).ldiq(2, 0).ldiq(9, iters);
    b.label("top");
    for (int i = 0; i < blockLen; ++i)
        b.addq(2, 2, 1); // serial chain
    b.subq(9, 9, 1).bne(9, "top").halt();
    return b.build();
}

TEST(Core, CommitsEverything)
{
    OoOCore core(CpuConfig{}, independentAdds(5));
    const auto s = runToHalt(core);
    EXPECT_EQ(s.committed, 3u + 5u * 42u + 1u);
    EXPECT_EQ(s.dispatched, s.committed);
}

TEST(Core, IndependentOpsSuperscalar)
{
    OoOCore core(CpuConfig{}, independentAdds(200));
    const auto s = runToHalt(core);
    // 8-wide with 8 IntALUs should sustain well above 3 IPC on
    // independent adds once the I-cache is warm.
    EXPECT_GT(s.ipc(), 3.0);
}

TEST(Core, DependentChainSerialises)
{
    OoOCore core(CpuConfig{}, dependentChain(200));
    const auto s = runToHalt(core);
    // One add per cycle at best.
    EXPECT_LT(s.ipc(), 1.3);
    EXPECT_GT(s.ipc(), 0.7);
}

TEST(Core, DependentFasterThanDivChain)
{
    OoOCore addCore(CpuConfig{}, dependentChain(100));
    ProgramBuilder b;
    b.ldiq(1, 100).ldiq(2, 3).ldiq(9, 100).ldiq(8, 1);
    b.label("top");
    for (int i = 0; i < 40; ++i)
        b.divq(1, 1, 2);
    b.subq(9, 9, 8).bne(9, "top").halt();
    OoOCore divCore(CpuConfig{}, b.build());
    const auto sAdd = runToHalt(addCore);
    const auto sDiv = runToHalt(divCore);
    // Unpipelined 20-cycle divides must be far slower.
    EXPECT_GT(sAdd.ipc(), 8.0 * sDiv.ipc());
}

TEST(Core, LoadStoreForwarding)
{
    // store then immediately load the same address: must forward.
    ProgramBuilder b;
    b.ldiq(1, 0x1000).ldiq(2, 42);
    for (int i = 0; i < 100; ++i) {
        b.stq(2, 1, 0);
        b.ldq(3, 1, 0);
    }
    b.halt();
    OoOCore core(CpuConfig{}, b.build());
    const auto s = runToHalt(core);
    EXPECT_GT(s.lsqForwards, 50u);
    EXPECT_EQ(s.loads, 100u);
    EXPECT_EQ(s.stores, 100u);
}

TEST(Core, PointerChaseSerialisesMisses)
{
    // Build a linked chain whose footprint exceeds the 2 MB L2, then
    // chase it: each load's address depends on the previous load, so
    // the ~300-cycle memory misses serialise.
    constexpr int kNodes = 600;
    constexpr int64_t kStride = 8384;  // 131 lines; spreads L2 sets
    constexpr int64_t kBase = 0x1000000;
    ProgramBuilder b;
    b.ldiq(1, kBase).ldiq(2, kStride).ldiq(9, kNodes).ldiq(8, 1);
    // Write the chain: node i holds the address of node i+1.
    b.label("mk")
        .addq(3, 1, 2)   // next = cur + stride
        .stq(3, 1, 0)
        .bis(1, 3, 31)   // cur = next
        .subq(9, 9, 8)
        .bne(9, "mk");
    // Chase it (cold again after > L2-size of stores? the stores also
    // left the early lines evicted by the later ones).
    b.ldiq(1, kBase).ldiq(9, kNodes);
    b.label("chase").ldq(1, 1, 0).subq(9, 9, 8).bne(9, "chase").halt();
    // Shrink the caches so the 600-node chain exceeds both levels.
    CpuConfig cfg;
    cfg.dl1.sizeBytes = 8 * 1024;
    cfg.l2.sizeBytes = 32 * 1024;
    OoOCore core(cfg, b.build());
    const auto s = runToHalt(core);
    EXPECT_GT(core.mem().dl1().stats().misses,
              static_cast<uint64_t>(kNodes)); // store pass + chase pass
    // Serial chain of mostly-memory misses dominates runtime.
    EXPECT_GT(s.cycles, kNodes * 100u);
}

TEST(Core, BranchMispredictsCostCycles)
{
    // Data-dependent unpredictable branches (pseudo-random via LCG
    // arithmetic) vs perfectly-biased branches of the same count.
    auto loop = [](bool random) {
        ProgramBuilder b;
        b.ldiq(1, 12345)   // lcg state
            .ldiq(2, 1103515245)
            .ldiq(3, 12345)
            .ldiq(4, 512)   // iterations
            .ldiq(5, 1)
            .ldiq(7, 0x10000);
        b.label("top");
        if (random) {
            b.ldiq(9, 33)
                .mulq(1, 1, 2)
                .addq(1, 1, 3)
                .srl(6, 1, 9)       // high LCG bit: unpredictable
                .and_(6, 6, 5)
                .beq(6, "skip")
                .addq(8, 8, 5)
                .label("skip");
        } else {
            b.addq(8, 8, 5).beq(31, "skip").label("skip");
        }
        b.subq(4, 4, 5).bne(4, "top").halt();
        return b.build();
    };
    OoOCore biased(CpuConfig{}, loop(false));
    OoOCore random(CpuConfig{}, loop(true));
    const auto sb = runToHalt(biased);
    const auto sr = runToHalt(random);
    EXPECT_GT(sr.mispredicts, 100u);
    EXPECT_LT(sb.mispredicts, 30u);
    EXPECT_LT(sb.cycles, sr.cycles);
}

TEST(Core, PredictableLoopLowMispredicts)
{
    ProgramBuilder b;
    b.ldiq(1, 2000).ldiq(2, 1);
    b.label("top").subq(1, 1, 2).bne(1, "top").halt();
    OoOCore core(CpuConfig{}, b.build());
    const auto s = runToHalt(core);
    EXPECT_EQ(s.branches, 2000u);
    EXPECT_LT(s.mispredicts, 40u);
}

TEST(Core, GatingFuStallsIssueButPreservesCorrectness)
{
    CpuConfig cfg;
    OoOCore gated(cfg, independentAdds(500));
    OoOCore free(cfg, independentAdds(500));
    // Gate FUs every other 10-cycle window.
    while (!gated.halted() && gated.now() < 100000) {
        gated.setGates({(gated.now() / 10) % 2 == 0, false, false});
        gated.cycle();
    }
    const auto sg = gated.stats();
    const auto sf = runToHalt(free);
    EXPECT_TRUE(gated.halted());
    EXPECT_EQ(sg.committed, sf.committed); // nothing dropped
    EXPECT_GT(sg.cycles, sf.cycles);       // but it cost time
    EXPECT_GT(sg.issueGateStalls, 0u);
}

TEST(Core, GatingIl1StopsFetch)
{
    CpuConfig cfg;
    OoOCore core(cfg, independentAdds(2, 10));
    core.setGates({false, false, true});
    for (int i = 0; i < 50; ++i)
        core.cycle();
    EXPECT_EQ(core.stats().fetched, 0u);
    // Releasing the gate lets the program finish.
    core.setGates({});
    runToHalt(core);
    EXPECT_EQ(core.stats().committed, 3u + 2u * 12u + 1u);
}

TEST(Core, GatingDl1StallsLoads)
{
    ProgramBuilder b;
    b.ldiq(1, 0x2000);
    for (int i = 0; i < 20; ++i)
        b.ldq(2, 1, 8 * i);
    b.halt();
    CpuConfig cfg;
    OoOCore core(cfg, b.build());
    core.setGates({false, true, false});
    for (int i = 0; i < 200; ++i)
        core.cycle();
    EXPECT_EQ(core.mem().dl1().stats().accesses, 0u);
    core.setGates({});
    runToHalt(core);
    EXPECT_EQ(core.stats().loads, 20u);
}

TEST(Core, PhantomDoesNotChangeTiming)
{
    CpuConfig cfg;
    OoOCore plain(cfg, independentAdds(1000));
    OoOCore phantom(cfg, independentAdds(1000));
    phantom.setPhantom({true, true, true});
    const auto sp = runToHalt(plain);
    const auto sh = runToHalt(phantom);
    EXPECT_EQ(sp.cycles, sh.cycles);
    EXPECT_EQ(sp.committed, sh.committed);
}

TEST(Core, ActivityVectorPopulated)
{
    CpuConfig cfg;
    OoOCore core(cfg, independentAdds(500));
    uint64_t fetched = 0, issued = 0, committed = 0;
    while (!core.halted() && core.now() < 10000) {
        const auto &av = core.cycle();
        fetched += av.fetched;
        issued += av.issuedIntAlu + av.issuedIntMult + av.issuedIntDiv +
                  av.issuedFpAdd + av.issuedFpMult + av.issuedFpDiv;
        committed += av.committed;
    }
    EXPECT_EQ(fetched, core.stats().fetched);
    EXPECT_EQ(committed, core.stats().committed);
    EXPECT_GT(issued, 0u);
}

TEST(Core, HaltedStaysHalted)
{
    OoOCore core(CpuConfig{}, independentAdds(10));
    runToHalt(core);
    const auto committed = core.stats().committed;
    core.cycle();
    core.cycle();
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.stats().committed, committed);
}

TEST(Core, RuuNeverExceedsCapacity)
{
    CpuConfig cfg;
    cfg.ruuSize = 16;
    cfg.lsqSize = 8;
    OoOCore core(cfg, independentAdds(2000));
    while (!core.halted() && core.now() < 100000) {
        const auto &av = core.cycle();
        EXPECT_LE(av.ruuOccupancy, cfg.ruuSize);
        EXPECT_LE(av.lsqOccupancy, cfg.lsqSize);
    }
    EXPECT_TRUE(core.halted());
}

TEST(Core, MemoryDependenceOrdering)
{
    // Store then dependent load through a different register path —
    // the load must see the stored value architecturally (checked by
    // the executor) and the pipeline must not deadlock.
    ProgramBuilder b;
    b.ldiq(1, 0x3000)
        .ldiq(2, 7)
        .stq(2, 1, 0)
        .ldq(3, 1, 0)
        .addq(4, 3, 2) // r4 = 14
        .halt();
    OoOCore core(CpuConfig{}, b.build());
    runToHalt(core);
    EXPECT_EQ(core.stats().committed, 6u);
}

// ------------------------------------------------- issue-order pinning

/** FNV-1a over the eight little-endian bytes of @p v. */
uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Field by field, so struct padding never reaches the hash. */
uint64_t
hashActivity(uint64_t h, const ActivityVector &av)
{
    for (const uint32_t v :
         {av.fetched, av.icacheAccesses, av.icacheMisses, av.bpredLookups,
          av.dispatched, av.ruuOccupancy, av.lsqOccupancy,
          av.issuedIntAlu, av.issuedIntMult, av.issuedIntDiv,
          av.issuedFpAdd, av.issuedFpMult, av.issuedFpDiv, av.busyIntAlu,
          av.busyIntMultDiv, av.busyFpAlu, av.busyFpMultDiv,
          av.memPortsUsed, av.dcacheAccesses, av.dcacheMisses,
          av.l2Accesses, av.l2Misses, av.lsqForwards, av.regReads,
          av.regWrites, av.writebacks, av.committed,
          std::bit_cast<uint32_t>(av.issueActivity)})
        h = fnvMix(h, v);
    for (const bool v : {av.gates.fu, av.gates.dl1, av.gates.il1,
                         av.phantom.fu, av.phantom.dl1, av.phantom.il1})
        h = fnvMix(h, v);
    return h;
}

uint64_t
hashStats(uint64_t h, const CoreStats &s)
{
    for (const uint64_t v :
         {s.cycles, s.fetched, s.dispatched, s.issued, s.committed,
          s.loads, s.stores, s.branches, s.mispredicts, s.lsqForwards,
          s.fetchStallBranch, s.fetchStallIcache, s.fetchStallGate,
          s.dispatchStallWindow, s.issueGateStalls, s.commitGateStalls})
        h = fnvMix(h, v);
    return h;
}

struct IssueOrderCase
{
    const char *workload;
    unsigned ruuSize;
    uint64_t expectHash;
};

void
PrintTo(const IssueOrderCase &c, std::ostream *os)
{
    *os << c.workload << "/ruu" << c.ruuSize;
}

class IssueOrder : public ::testing::TestWithParam<IssueOrderCase>
{
};

/**
 * Differential pin of the issue stage's selection order: the expected
 * hashes were captured from the full-RUU scan that the Ready-mask walk
 * replaced, so any change in which Ready entry issues when (or how
 * many gate stalls it counts) moves the hash. Sizes 63, 65 and 100
 * leave the mask's last word partial and wrap the walk from the tail
 * to slot 0; the random gate/phantom/issue-limit loop is the one of
 * FuzzSweep.RandomInterferencePreservesExecution, so the FU-gating
 * skip rule and width caps below issueWidth are covered too.
 */
TEST_P(IssueOrder, ActivityAndStatsMatchTheFullScan)
{
    const IssueOrderCase &c = GetParam();
    const std::string name = c.workload;
    Program program;
    if (name == "gcc")
        program = vguard::workloads::buildSpecProxy("gcc");
    else if (name == "stressmark")
        program = vguard::workloads::StressmarkBuilder::build({});
    else
        program = vguard::workloads::wakeupKernel();

    CpuConfig cfg;
    cfg.ruuSize = c.ruuSize;
    OoOCore core(cfg, std::move(program));
    vguard::Rng rng(0xabcdef ^ c.ruuSize);
    uint64_t sameGateStreak = 0;
    uint64_t h = 0xcbf29ce484222325ull;
    for (int n = 0; n < 50000; ++n) {
        if (sameGateStreak > 300 || rng.chance(0.05)) {
            core.setGates({});
            core.setPhantom({});
            core.setIssueLimit(~0u);
            sameGateStreak = 0;
        } else if (rng.chance(0.05)) {
            core.setGates({rng.chance(0.5), rng.chance(0.5),
                           rng.chance(0.5)});
            core.setPhantom({rng.chance(0.3), false, false});
            core.setIssueLimit(static_cast<unsigned>(rng.below(9)));
        }
        ++sameGateStreak;
        h = hashActivity(h, core.cycle());
    }
    h = hashStats(h, core.stats());
    EXPECT_GT(core.stats().issued, 0u);
    EXPECT_GT(core.stats().issueGateStalls, 0u);
    EXPECT_EQ(h, c.expectHash) << std::hex << "0x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    RuuShapes, IssueOrder,
    ::testing::Values(
        IssueOrderCase{"gcc", 1, 0xd8f3a69041cb48eaull},
        IssueOrderCase{"gcc", 16, 0xf81ca8b0b4c906fdull},
        IssueOrderCase{"gcc", 63, 0x37440070f4de0d9aull},
        IssueOrderCase{"gcc", 64, 0x88258aa8af59036cull},
        IssueOrderCase{"gcc", 65, 0x8c36952fff874616ull},
        IssueOrderCase{"gcc", 100, 0xf0cf85f00430e0f8ull},
        IssueOrderCase{"gcc", 256, 0xceb289e933fc820aull},
        IssueOrderCase{"stressmark", 1, 0xfe0556cdd5325364ull},
        IssueOrderCase{"stressmark", 16, 0x149c0ccba06fd5fbull},
        IssueOrderCase{"stressmark", 63, 0xeccae25d611c465aull},
        IssueOrderCase{"stressmark", 64, 0x637f2c096458019bull},
        IssueOrderCase{"stressmark", 65, 0xa6fa3255148f4031ull},
        IssueOrderCase{"stressmark", 100, 0x8134894495deded7ull},
        IssueOrderCase{"stressmark", 256, 0xffd21a056ae35ab0ull},
        IssueOrderCase{"wakeup", 1, 0x622eb066937ffcccull},
        IssueOrderCase{"wakeup", 16, 0x10d9e9fa8e9cc801ull},
        IssueOrderCase{"wakeup", 63, 0x1c82135ef5f3e903ull},
        IssueOrderCase{"wakeup", 64, 0x60cc9c63b5b57307ull},
        IssueOrderCase{"wakeup", 65, 0xb0b303b05bb9f80aull},
        IssueOrderCase{"wakeup", 100, 0xf3e980577fa72b31ull},
        IssueOrderCase{"wakeup", 256, 0x9eaaf26708abf6a2ull}),
    [](const ::testing::TestParamInfo<IssueOrderCase> &info) {
        return std::string(info.param.workload) + "_ruu" +
               std::to_string(info.param.ruuSize);
    });

} // namespace
