/**
 * @file
 * Convolver perf harness: pins the partitioned-convolver speedup in a
 * machine-readable artifact so CI can watch for regressions.
 *
 * Times the three voltage back-ends — state-space stepping, the naive
 * O(taps) reference Convolver, and the partitioned overlap-save
 * convolver — over the same pseudo-random current trace at 256, 1024
 * and 4096 kernel taps, cross-checks naive vs partitioned output
 * (max abs deviation), and writes BENCH_convolver.json.
 *
 * Usage:
 *   bench_convolver [samples] [--jsonl FILE]
 *
 * Defaults: 20000 timed samples per configuration, output to
 * BENCH_convolver.json in the current directory.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "obs/tracing.hpp"
#include "pdn/impulse.hpp"
#include "pdn/package_model.hpp"
#include "pdn/partitioned_convolver.hpp"
#include "pdn/pdn_sim.hpp"
#include "util/decimal.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using namespace vguard;
using namespace vguard::pdn;

namespace {

/** Paper-style reference package (50 MHz resonance, 1 mΩ peak). */
PackageModel
referencePkg()
{
    return PackageModel::design(50e6, 1e-3);
}

/** Kernel resized to exactly @p taps (zero-pad or truncate). */
std::vector<double>
kernelWithTaps(const std::vector<double> &full, size_t taps)
{
    std::vector<double> h = full;
    h.resize(taps, 0.0);
    return h;
}

/** Deterministic current trace in the reference machine's 5-55 A range. */
std::vector<double>
currentTrace(size_t samples)
{
    Rng rng(0xbe7c);
    std::vector<double> amps(samples);
    for (double &a : amps)
        a = 5.0 + 50.0 * rng.uniform();
    return amps;
}

/** Wall-clock a convolver-like step() loop; returns cycles/second. */
template <typename Sim>
double
timeSteps(Sim &sim, const std::vector<double> &amps, double &sink)
{
    const obs::StopWatch watch;
    double acc = 0.0;
    for (double a : amps)
        acc += sim.step(a);
    const double secs = watch.seconds();
    sink += acc;  // defeat dead-code elimination
    return secs > 0.0 ? static_cast<double>(amps.size()) / secs : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    core::CampaignCli cli = core::parseCampaignCli(argc, argv);
    uint64_t samples = 20000;
    if (!cli.positional.empty() &&
        (!parseDecimal(cli.positional[0], samples) || samples == 0))
        fatal("bench_convolver: samples: expected a positive integer, "
              "got '%s'",
              cli.positional[0].c_str());
    const std::string outPath =
        cli.jsonlPath.empty() ? "BENCH_convolver.json" : cli.jsonlPath;

    const PackageModel pkg = referencePkg();
    const auto fullKernel = impulseResponse(pkg);
    const auto amps = currentTrace(samples);
    const double iBias = 10.0;
    double sink = 0.0;

    // State-space baseline is kernel-length independent: time it once.
    PdnSim ss(pkg);
    ss.trimToCurrent(iBias);
    const double ssRate = timeSteps(ss, amps, sink);

    JsonWriter w;
    w.beginObject();
    w.field("bench", "convolver");
    w.field("samples", samples);
    w.field("fullKernelTaps", static_cast<uint64_t>(fullKernel.size()));
    w.field("stateSpaceCyclesPerSec", ssRate);
    w.key("results").beginArray();

    std::printf("state-space: %.3g cycles/s\n", ssRate);
    std::printf("%8s %18s %18s %9s %12s\n", "taps", "naive c/s",
                "partitioned c/s", "speedup", "maxAbsDev");

    for (size_t taps : {size_t{256}, size_t{1024}, size_t{4096}}) {
        const auto h = kernelWithTaps(fullKernel, taps);

        Convolver naive(h, 1.0, iBias);
        PartitionedConvolver part(h, 1.0, iBias);

        // Correctness cross-check on a prefix of the trace (naive is
        // slow; 4 * taps samples covers several full delay lines).
        const size_t checkLen = std::min<size_t>(samples, 4 * taps);
        double maxDev = 0.0;
        for (size_t i = 0; i < checkLen; ++i)
            maxDev = std::max(maxDev, std::fabs(naive.step(amps[i]) -
                                                part.step(amps[i])));
        naive.reset();
        part.reset();

        const double naiveRate = timeSteps(naive, amps, sink);
        const double partRate = timeSteps(part, amps, sink);
        const double speedup =
            naiveRate > 0.0 ? partRate / naiveRate : 0.0;

        w.beginObject();
        w.field("taps", static_cast<uint64_t>(taps));
        w.field("naiveCyclesPerSec", naiveRate);
        w.field("partitionedCyclesPerSec", partRate);
        w.field("speedup", speedup);
        w.field("maxAbsDev", maxDev);
        w.endObject();

        std::printf("%8zu %18.6g %18.6g %8.2fx %12.3g\n", taps,
                    naiveRate, partRate, speedup, maxDev);
    }

    w.endArray();
    w.endObject();

    std::FILE *f = std::fopen(outPath.c_str(), "wb");
    if (!f)
        fatal("bench_convolver: cannot open '%s'", outPath.c_str());
    const std::string text = w.take() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());
    (void)sink;
    return 0;
}
