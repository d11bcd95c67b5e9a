/**
 * @file
 * Randomised pipeline fuzzing: generate structured random VRISC
 * programs (arithmetic, memory traffic, counted loops, calls) and
 * assert end-to-end invariants of the out-of-order core against the
 * pure functional executor:
 *
 *  - the core halts (no deadlock/livelock) and commits exactly the
 *    dynamic instruction count the executor retires;
 *  - architectural state matches between a plain run and a run with
 *    aggressive random gating/phantom/throttle interference (the
 *    controller must never corrupt execution);
 *  - activity accounting stays consistent with the aggregate stats.
 *
 * Further lanes fuzz the batched PDN backend against the scalar one
 * and the trace store's stats-blob decoder against mutated input.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/trace_store.hpp"
#include "cpu/core.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "obs/metrics.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/package_model.hpp"
#include "util/rng.hpp"

namespace {

using namespace vguard;
using namespace vguard::isa;

/**
 * Structured random program: a few counted loops over blocks of random
 * arithmetic/memory/call work. Always terminates.
 */
Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b;

    // Fixed scaffolding registers: r1 data pointer, r2 const 1,
    // r3.. scratch pool, r20/r21 loop counters.
    b.ldiq(1, 0x20000).ldiq(2, 1);
    for (unsigned r = 3; r <= 14; ++r)
        b.ldiq(r, static_cast<int64_t>(rng.next() >> 8));
    for (unsigned f = 1; f <= 6; ++f)
        b.ldit(f, 1.0 + 0.25 * static_cast<double>(f));

    const unsigned loops = 1 + rng.below(3);
    unsigned label = 0;
    bool emittedCallee = false;

    for (unsigned l = 0; l < loops; ++l) {
        const unsigned iters = 2 + rng.below(30);
        const unsigned counter = 20 + (l % 2);
        char top[16];
        std::snprintf(top, sizeof(top), ".L%u", label++);
        b.ldiq(counter, iters);
        b.label(top);

        const unsigned blockLen = 4 + rng.below(24);
        for (unsigned i = 0; i < blockLen; ++i) {
            const unsigned rd = 3 + rng.below(12);
            const unsigned ra = 3 + rng.below(12);
            const unsigned rb = 3 + rng.below(12);
            switch (rng.below(12)) {
              case 0: b.addq(rd, ra, rb); break;
              case 1: b.subq(rd, ra, rb); break;
              case 2: b.xor_(rd, ra, rb); break;
              case 3: b.and_(rd, ra, rb); break;
              case 4: b.mulq(rd, ra, rb); break;
              case 5: b.divq(rd, ra, rb); break;
              case 6: b.cmovne(rd, ra, rb); break;
              case 7:
                b.ldq(rd, 1, 8 * static_cast<int64_t>(rng.below(64)));
                break;
              case 8:
                b.stq(ra, 1, 8 * static_cast<int64_t>(rng.below(64)));
                break;
              case 9: {
                const unsigned fd = 1 + rng.below(8);
                const unsigned fa = 1 + rng.below(8);
                if (rng.chance(0.5))
                    b.addt(fd, fa, 2);
                else
                    b.mult(fd, fa, 1);
                break;
              }
              case 10:
                b.ldt(1 + rng.below(8), 1,
                      8 * static_cast<int64_t>(rng.below(64)));
                break;
              default:
                b.stt(1 + rng.below(8), 1,
                      8 * static_cast<int64_t>(rng.below(64)));
                break;
            }
        }
        if (rng.chance(0.5)) {
            b.call("callee");
            emittedCallee = true;
        }
        b.subq(counter, counter, 2);
        b.bne(counter, top);
    }
    b.halt();
    if (emittedCallee) {
        b.label("callee").xor_(15, 3, 4).addq(16, 15, 2).ret();
    } else {
        // Keep the label table stable for determinism checks.
        b.label("callee").ret();
    }
    return b.build();
}

// Dynamic instruction count of the reference executor.
uint64_t
referenceCount(const Program &p, uint64_t guard = 5'000'000)
{
    Executor ex(p);
    while (!ex.halted() && ex.instsExecuted() < guard)
        ex.step();
    EXPECT_TRUE(ex.halted()) << "reference executor did not halt";
    return ex.instsExecuted();
}

class FuzzSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzSweep, CoreCommitsExactlyTheDynamicStream)
{
    const Program p = randomProgram(GetParam());
    const uint64_t expect = referenceCount(p);

    cpu::OoOCore core(cpu::CpuConfig{}, p);
    while (!core.halted() && core.now() < 20'000'000)
        core.cycle();
    ASSERT_TRUE(core.halted()) << "core deadlocked (seed "
                               << GetParam() << ")";
    EXPECT_EQ(core.stats().committed, expect);
    EXPECT_EQ(core.stats().dispatched, core.stats().committed);
}

TEST_P(FuzzSweep, RandomInterferencePreservesExecution)
{
    const Program p = randomProgram(GetParam());
    const uint64_t expect = referenceCount(p);

    cpu::OoOCore core(cpu::CpuConfig{}, p);
    Rng rng(GetParam() ^ 0xabcdef);
    uint64_t sameGateStreak = 0;
    while (!core.halted() && core.now() < 40'000'000) {
        // Randomly gate/phantom/throttle, but never gate forever.
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
        core.cycle();
    }
    ASSERT_TRUE(core.halted()) << "interfered core deadlocked (seed "
                               << GetParam() << ")";
    // Gating must stall, never drop or duplicate instructions.
    EXPECT_EQ(core.stats().committed, expect);
}

TEST_P(FuzzSweep, ActivitySumsMatchStats)
{
    const Program p = randomProgram(GetParam());
    cpu::OoOCore core(cpu::CpuConfig{}, p);
    uint64_t fetched = 0, committed = 0, dispatched = 0;
    while (!core.halted() && core.now() < 20'000'000) {
        const auto &av = core.cycle();
        fetched += av.fetched;
        committed += av.committed;
        dispatched += av.dispatched;
        EXPECT_LE(av.committed, core.config().commitWidth);
        EXPECT_LE(av.dispatched, core.config().decodeWidth);
        EXPECT_LE(av.fetched, core.config().fetchWidth);
    }
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(fetched, core.stats().fetched);
    EXPECT_EQ(committed, core.stats().committed);
    EXPECT_EQ(dispatched, core.stats().dispatched);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89, 144, 233));

// ----------------------------------------------- PDN backend fuzzing

/**
 * Fuzz lane for the batched PDN backend (ISSUE 6): random trace
 * lengths, lane counts and — the part unit grids under-cover — random
 * *block boundaries*, pushed through both backends. Asserts exact
 * agreement everywhere; out-of-bounds lane padding or scratch misuse
 * surfaces under the ASan/UBSan CI runs of this suite.
 */
class BackendFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BackendFuzz, RandomTracesAndBlockBoundariesNeverDiverge)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 7);

    const size_t k = 1 + rng.below(9);
    std::vector<pdn::LaneConfig> lanes;
    for (size_t i = 0; i < k; ++i)
        lanes.push_back({pdn::PackageModel::design(
                             rng.uniform(30e6, 150e6),
                             rng.uniform(0.8e-3, 4e-3))
                             .params(),
                         rng.uniform(0.0, 30.0)});

    std::vector<double> amps(1 + rng.below(5000));
    for (double &a : amps)
        a = rng.uniform(0.0, 60.0);

    // Scalar reference: one unblocked pass.
    const auto scalar = pdn::makeScalarBackend(lanes);
    std::vector<double> ref(amps.size() * k);
    scalar->stepShared(amps.data(), amps.size(), ref.data());

    // Batched: the same trace fed in randomly-sized chunks (state must
    // carry across stepShared calls exactly).
    const auto batched = pdn::makeBatchedBackend(lanes);
    std::vector<double> got(amps.size() * k);
    size_t done = 0;
    while (done < amps.size()) {
        const size_t chunk =
            std::min<size_t>(1 + rng.below(300), amps.size() - done);
        batched->stepShared(amps.data() + done, chunk,
                            got.data() + done * k);
        done += chunk;
    }

    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], got[i])
            << "cycle " << i / k << " lane " << i % k;

    // Interleave per-cycle stepping on both, continuing from the
    // streamed state — the two entry points must compose.
    std::vector<double> cur(k), vs(k), vb(k);
    for (size_t cyc = 0; cyc < 64; ++cyc) {
        for (size_t lane = 0; lane < k; ++lane)
            cur[lane] = rng.uniform(0.0, 60.0);
        scalar->stepCycle(cur.data(), vs.data());
        batched->stepCycle(cur.data(), vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "post-stream cycle " << cyc << " lane " << lane;
    }
}

TEST_P(BackendFuzz, PerLaneTracesAndBlockBoundariesNeverDiverge)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 11);

    const size_t k = 1 + rng.below(9);
    std::vector<pdn::LaneConfig> lanes;
    for (size_t i = 0; i < k; ++i)
        lanes.push_back({pdn::PackageModel::design(
                             rng.uniform(30e6, 150e6),
                             rng.uniform(0.8e-3, 4e-3))
                             .params(),
                         rng.uniform(0.0, 30.0)});

    // Cycle-major per-lane traces: every lane gets its own stream.
    const size_t cycles = 1 + rng.below(5000);
    std::vector<double> amps(cycles * k);
    for (double &a : amps)
        a = rng.uniform(0.0, 60.0);

    // Scalar reference: per-cycle stepping (the simplest entry point).
    const auto scalar = pdn::makeScalarBackend(lanes);
    std::vector<double> ref(amps.size());
    for (size_t cyc = 0; cyc < cycles; ++cyc)
        scalar->stepCycle(amps.data() + cyc * k, ref.data() + cyc * k);

    // Batched stepPerLane fed in randomly-sized chunks (state must
    // carry across calls exactly).
    const auto batched = pdn::makeBatchedBackend(lanes);
    std::vector<double> got(amps.size());
    size_t done = 0;
    while (done < cycles) {
        const size_t chunk =
            std::min<size_t>(1 + rng.below(300), cycles - done);
        batched->stepPerLane(amps.data() + done * k, chunk,
                             got.data() + done * k);
        done += chunk;
    }

    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], got[i])
            << "cycle " << i / k << " lane " << i % k;

    // Interleave the three entry points on both backends, continuing
    // from the streamed state — they all must compose.
    std::vector<double> cur(k), vs(k), vb(k);
    for (size_t round = 0; round < 16; ++round) {
        for (size_t lane = 0; lane < k; ++lane)
            cur[lane] = rng.uniform(0.0, 60.0);
        scalar->stepCycle(cur.data(), vs.data());
        batched->stepPerLane(cur.data(), 1, vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "post-stream round " << round << " lane " << lane;

        const double shared = rng.uniform(0.0, 60.0);
        scalar->stepShared(&shared, 1, vs.data());
        batched->stepShared(&shared, 1, vb.data());
        for (size_t lane = 0; lane < k; ++lane)
            ASSERT_EQ(vs[lane], vb[lane])
                << "post-stream shared round " << round << " lane "
                << lane;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

// ------------------------------------- trace-store snapshot decoding

/** A random stats snapshot: counters and gauges. */
obs::Snapshot
randomSnapshot(Rng &rng)
{
    obs::Snapshot snap;
    const unsigned counters = 1 + rng.below(4);
    for (unsigned i = 0; i < counters; ++i)
        snap.setCounter("cpu.c" + std::to_string(i), rng.next(),
                        static_cast<obs::MergeRule>(rng.below(4)),
                        "counter " + std::to_string(i));
    snap.setGauge("pdn.g", rng.uniform(-2.0, 2.0), obs::MergeRule::Min);
    snap.setGauge("pdn.voltage", rng.uniform(0.85, 1.15),
                  obs::MergeRule::Last, "supply voltage");
    return snap;
}

/**
 * Offsets of every length/count field in an encodeSnapshot() blob:
 * the entry count and each name/desc length. Walks the layout
 * documented beside the encoder.
 */
std::vector<size_t>
lengthFieldOffsets(const std::string &blob)
{
    auto u64At = [&](size_t at) {
        uint64_t v;
        std::memcpy(&v, blob.data() + at, sizeof v);
        return v;
    };
    std::vector<size_t> out{0};
    const uint64_t count = u64At(0);
    size_t at = 8;
    for (uint64_t e = 0; e < count; ++e) {
        for (int str = 0; str < 2; ++str) {
            out.push_back(at);
            at += 8 + u64At(at);
        }
        at += 1 + 1 + 8 + 8 + 1;  // kind, rule, u, d, histogram flag
    }
    return out;
}

/**
 * Fuzz lane for the store's stats-blob decoder, the one decoder that
 * reads bytes another process wrote: random truncations, byte flips
 * and length-field overwrites of a valid blob. decodeSnapshot must
 * reject or accept without aborting (ASan/UBSan catch any stray
 * read), and anything it accepts must re-encode and re-decode to the
 * same snapshot and render through the stats consumers.
 */
class SnapshotFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SnapshotFuzz, MutatedBlobsRejectOrRoundTrip)
{
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 13);
    const std::string blob = core::encodeSnapshot(randomSnapshot(rng));
    const std::vector<size_t> lengths = lengthFieldOffsets(blob);
    ASSERT_LT(lengths.back() + 8, blob.size());

    obs::Snapshot clean;
    ASSERT_TRUE(core::decodeSnapshot(blob.data(), blob.size(), clean));
    EXPECT_EQ(core::encodeSnapshot(clean), blob);

    const uint64_t bigLengths[] = {1,
                                   7,
                                   blob.size(),
                                   blob.size() + 1,
                                   uint64_t{1} << 32,
                                   uint64_t{1} << 61,
                                   ~uint64_t{0}};
    unsigned accepted = 0;
    for (unsigned iter = 0; iter < 300; ++iter) {
        std::string bad = blob;
        switch (iter % 3) {
          case 0:
            bad.resize(rng.below(blob.size()));
            break;
          case 1:
            for (uint64_t n = 1 + rng.below(4); n > 0; --n)
                bad[rng.below(bad.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            break;
          default: {
            const size_t at = lengths[rng.below(lengths.size())];
            const uint64_t v =
                rng.chance(0.5)
                    ? bigLengths[rng.below(std::size(bigLengths))]
                    : rng.below(64);
            std::memcpy(bad.data() + at, &v, sizeof v);
            break;
          }
        }

        obs::Snapshot got;
        if (!core::decodeSnapshot(bad.data(), bad.size(), got))
            continue;
        ++accepted;
        const std::string again = core::encodeSnapshot(got);
        obs::Snapshot back;
        ASSERT_TRUE(core::decodeSnapshot(again.data(), again.size(),
                                         back))
            << "iteration " << iter;
        ASSERT_EQ(core::encodeSnapshot(back), again)
            << "iteration " << iter;
        EXPECT_EQ(back.json(), got.json()) << "iteration " << iter;
    }
    // Flips inside names and values stay well-formed, so the
    // round-trip branch is always exercised.
    EXPECT_GT(accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
