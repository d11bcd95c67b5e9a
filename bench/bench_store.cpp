/**
 * @file
 * Cold-vs-warm sweep harness for the persistent trace store. Emits
 * BENCH_store.json for the benchdiff gate.
 *
 * Two passes over the same Table-2-style impedance sweep (several
 * programs x several packages, open-loop):
 *
 *   cold    empty disk store, empty in-memory cache — every program
 *           pays a full-core capture, which the store persists;
 *   warm    in-memory cache dropped (a fresh process, simulated), the
 *           sweep replays from mmapped store files — zero captures.
 *
 * The artifact pins the acceptance shape: warm must capture nothing
 * (capturesWarm == 0), serve every program from disk (storeHits ==
 * program count), stay byte-identical to the cold pass on the
 * deterministic JSONL, and finish in <= 0.5x the cold wall time
 * (benchdiff `store` entry).
 *
 * Usage: bench_store [cycles] [--jsonl FILE] — defaults 20000 cycles,
 * BENCH_store.json.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "core/trace_store.hpp"
#include "obs/tracing.hpp"
#include "util/decimal.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "workloads/spec_proxy.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

constexpr const char *kPrograms[] = {"gzip", "swim", "mcf"};
constexpr double kScales[] = {1.0, 1.5, 2.0, 2.5};

std::vector<CampaignJob>
sweepJobs(uint64_t cycles)
{
    std::vector<CampaignJob> jobs;
    for (const char *name : kPrograms)
        for (double scale : kScales) {
            RunSpec rs;
            rs.impedanceScale = scale;
            rs.controllerEnabled = false;
            rs.maxCycles = cycles;
            jobs.push_back({std::string(name) + "@" +
                                std::to_string(scale),
                            workloads::buildSpecProxy(name), rs,
                            false});
        }
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignCli cli = parseCampaignCli(argc, argv);
    uint64_t cycles = 20000;
    if (!cli.positional.empty() &&
        (!parseDecimal(cli.positional[0], cycles) || cycles == 0))
        fatal("bench_store: cycles: expected a positive integer, got '%s'",
              cli.positional[0].c_str());
    const std::string outPath =
        cli.jsonlPath.empty() ? "BENCH_store.json" : cli.jsonlPath;

    namespace fs = std::filesystem;
    const fs::path storeDir =
        fs::temp_directory_path() /
        ("vguard-bench-store-" + std::to_string(cycles));
    fs::remove_all(storeDir);

    TraceStore &store = TraceStore::instance();
    TraceCache &cache = TraceCache::instance();
    store.configure(storeDir.string(), size_t{1} << 30);

    // Warm the shared experiment caches (target impedance, current
    // range) outside the timed region: both passes need them.
    referenceTarget();
    cache.clear();

    CampaignEngine::Options opts;
    opts.threads = 2;
    opts.campaignSeed = 0xbe9c5;

    // --- cold: empty store, empty cache — captures + store writes.
    const uint64_t capBeforeCold = cache.captures();
    const obs::StopWatch coldWatch;
    const CampaignResult cold =
        CampaignEngine(opts).run(sweepJobs(cycles));
    const double coldSeconds = coldWatch.seconds();
    const uint64_t captures = cache.captures() - capBeforeCold;

    // --- warm: drop the in-memory cache (a fresh process) and sweep
    // again; every program must come back as one mmapped store hit.
    cache.clear();
    const uint64_t capBeforeWarm = cache.captures();
    const uint64_t hitBeforeWarm = store.hits();
    const obs::StopWatch warmWatch;
    const CampaignResult warm =
        CampaignEngine(opts).run(sweepJobs(cycles));
    const double warmSeconds = warmWatch.seconds();
    const uint64_t capturesWarm = cache.captures() - capBeforeWarm;
    const uint64_t storeHits = store.hits() - hitBeforeWarm;

    const bool identical = warm.jsonl() == cold.jsonl() &&
                           warm.mergedStats.json() ==
                               cold.mergedStats.json();
    const double warmOverColdRatio =
        coldSeconds > 0.0 ? warmSeconds / coldSeconds : 0.0;

    std::printf("sweep: %zu jobs x %llu cycles\n",
                sweepJobs(cycles).size(),
                static_cast<unsigned long long>(cycles));
    std::printf("%-22s %10.3fs  captures=%llu\n", "cold (simulate)",
                coldSeconds, static_cast<unsigned long long>(captures));
    std::printf("%-22s %10.3fs  captures=%llu storeHits=%llu\n",
                "warm (disk store)", warmSeconds,
                static_cast<unsigned long long>(capturesWarm),
                static_cast<unsigned long long>(storeHits));
    std::printf("warm/cold ratio: %.3f\n", warmOverColdRatio);
    std::printf("byte-identical: %s\n", identical ? "yes" : "NO");

    JsonWriter w;
    w.beginObject();
    w.field("bench", "store");
    w.field("cycles", cycles);
    w.field("jobs", static_cast<uint64_t>(cold.runs.size()));
    w.field("programs",
            static_cast<uint64_t>(std::size(kPrograms)));
    w.field("identical", identical);
    w.field("captures", captures);
    w.field("capturesWarm", capturesWarm);
    w.field("storeHits", storeHits);
    w.field("coldSeconds", coldSeconds);
    w.field("warmSeconds", warmSeconds);
    w.field("warmOverColdRatio", warmOverColdRatio);
    w.endObject();

    std::FILE *f = std::fopen(outPath.c_str(), "wb");
    if (!f)
        fatal("bench_store: cannot open '%s'", outPath.c_str());
    const std::string text = w.take() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());

    store.configure("", 0);
    fs::remove_all(storeDir);
    return identical && capturesWarm == 0 ? 0 : 1;
}
