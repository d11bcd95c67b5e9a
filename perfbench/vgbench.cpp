/**
 * @file
 * Child program of the vguard benchmark (perfbench/README.md).
 *
 * One invocation is one benchmark operation in a fresh process, so the
 * per-process caches (trace cache, reference thresholds, current range,
 * target impedance) start cold exactly as they do for a user running a
 * paper binary. perfbench/run.py launches it, times it with wait4()
 * and checks what it prints.
 *
 * Usage:
 *   vgbench op <workload> --seed N [--store DIR]
 *              [--stress DIV,STORES,ALU] [--trace]
 *   vgbench calibrate
 *   vgbench probe <workload> --seed N --stress DIV,STORES,ALU
 *
 * Workloads: tab02_cold, replay_warm, delay_sweep_closed. Every mode
 * prints one JSON object on stdout. `op` runs the campaign pool at
 * min(4, hardware threads), as a user of the paper binaries would.
 *
 * `op` without --trace calls the same public entry points the paper
 * binaries call (CampaignEngine::run, replaySweep, runChips). With
 * --trace it drives the same jobs through CampaignEngine::forEach and
 * the per-run public calls (fetchTrace, runWorkload,
 * referenceThresholds), wrapping each call in a benchmark-side span;
 * its digests must equal the untraced ones, which checks that the
 * decomposition does the same work.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/replay_sweep.hpp"
#include "core/trace_cache.hpp"
#include "core/trace_store.hpp"
#include "cpu/core.hpp"
#include "pdn/package_model.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

enum class Workload
{
    Tab02Cold,
    ReplayWarm,
    DelaySweepClosed,
};

/** Table 2's open-loop budget (tab02_spec_emergencies). */
constexpr uint64_t kTab02Cycles = 60000;
/**
 * Chip-table stressmark budget. The binary's 60k-cycle pass takes about
 * 11 ms, too little to time; 1M cycles makes the MulticoreSim pass a
 * few hundred milliseconds.
 */
constexpr uint64_t kChipCycles = 1000000;
/** Figs. 14-15 budget per job: 5x the binary's 40k, so the closed loop
    rather than set-up dominates. */
constexpr uint64_t kDelayCycles = 200000;
constexpr unsigned kMaxDelay = 6;
/** Cycles per program in the layer probe, and timed passes over them. */
constexpr size_t kProbeCycles = 16384;
constexpr size_t kProbePasses = 5;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "vgbench: %s\n", msg);
    std::exit(2);
}

Workload
parseWorkload(const std::string &name)
{
    if (name == "tab02_cold")
        return Workload::Tab02Cold;
    if (name == "replay_warm")
        return Workload::ReplayWarm;
    if (name == "delay_sweep_closed")
        return Workload::DelaySweepClosed;
    usage(("unknown workload '" + name + "'").c_str());
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Benchmark seed -> SPEC-proxy program seed. Seed 0 reproduces the
 * stable per-name seed of buildSpecProxy(name), i.e. the programs the
 * paper binaries run.
 */
uint64_t
programSeed(const std::string &name, uint64_t seed)
{
    uint64_t h = fnv1a(name);
    if (seed == 0)
        return h;
    uint64_t s = seed;
    h ^= splitmix64Next(s);
    return splitmix64Next(h);
}

/** Benchmark seed -> campaign seed; seed 0 keeps the binaries' default. */
uint64_t
campaignSeed(uint64_t seed)
{
    uint64_t s = CampaignEngine::Options{}.campaignSeed;
    if (seed == 0)
        return s;
    s ^= seed;
    return splitmix64Next(s);
}

isa::Program
specProgram(const std::string &name, uint64_t seed)
{
    return workloads::buildSpecProxy(workloads::specProfile(name),
                                     programSeed(name, seed));
}

workloads::StressmarkParams
parseStress(const std::string &text)
{
    workloads::StressmarkParams p;
    if (std::sscanf(text.c_str(), "%u,%u,%u", &p.divChain,
                    &p.burstStores, &p.burstAlu) != 3)
        usage("--stress wants DIV,STORES,ALU");
    return p;
}

std::string
stressText(const workloads::StressmarkParams &p)
{
    return std::to_string(p.divChain) + "," +
           std::to_string(p.burstStores) + "," +
           std::to_string(p.burstAlu);
}

/** Snapshot of the program's public counters. */
struct Counters
{
    uint64_t captures = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    size_t cacheBytes = 0;
    uint64_t storeHits = 0;
    uint64_t storeMisses = 0;
    uint64_t storeRejects = 0;
    size_t mappedBytes = 0;
    uint64_t solves = 0;

    static Counters
    read()
    {
        const TraceCache &tc = TraceCache::instance();
        const TraceStore &ts = TraceStore::instance();
        return {tc.captures(),    tc.hits(),        tc.misses(),
                tc.bytes(),       ts.hits(),        ts.misses(),
                ts.rejects(),     ts.mappedBytes(), thresholdSolveCount()};
    }
};

// ---------------------------------------------------------------------
// Benchmark-side tracing (active only for `op --trace`).

/** Per-layer accumulator: busy seconds, calls and simulated units. */
struct LayerAcc
{
    double seconds = 0.0;
    uint64_t calls = 0;
    uint64_t units = 0;
};

/** One call made by the main thread, inside a layer span or not. */
struct TopCall
{
    std::string name;
    bool layer = false;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class Tracer
{
  public:
    bool on = false;

    void
    add(const std::string &layer, int64_t t0, int64_t t1,
        uint64_t units = 0)
    {
        std::lock_guard<std::mutex> lock(m_);
        LayerAcc &a = layers_[layer];
        a.seconds += 1e-9 * static_cast<double>(t1 - t0);
        a.calls += 1;
        a.units += units;
    }

    void
    top(const std::string &name, bool layer, int64_t t0, int64_t t1)
    {
        std::lock_guard<std::mutex> lock(m_);
        top_.push_back({name, layer, t0, t1});
    }

    LayerAcc
    layer(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(m_);
        const auto it = layers_.find(name);
        return it == layers_.end() ? LayerAcc{} : it->second;
    }

    std::vector<TopCall>
    topCalls() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return top_;
    }

  private:
    mutable std::mutex m_;
    std::map<std::string, LayerAcc> layers_;
    std::vector<TopCall> top_;
};

Tracer tracer;

/**
 * Time one main-thread call. With @p layer non-empty the call is a
 * layer span (and its time is added to that layer); otherwise it is
 * recorded as a call left outside every span, for the accounting.
 */
template <typename F>
auto
timed(const std::string &name, const std::string &layer, F &&fn)
{
    if (!tracer.on)
        return fn();
    const int64_t t0 = nowNs();
    auto result = fn();
    const int64_t t1 = nowNs();
    tracer.top(name, !layer.empty(), t0, t1);
    if (!layer.empty())
        tracer.add(layer, t0, t1);
    return result;
}

/**
 * First-caller gate: the first call on a key runs @p fn; concurrent
 * and later calls on the key wait until it has returned. Mirrors the
 * per-key once_flag of the trace cache and threshold cache, so the
 * call that fetches a trace (or solves thresholds) is known, and the
 * calls that would have blocked inside the program block here, outside
 * the replay and closed-loop spans.
 */
class OnceGate
{
  public:
    template <typename F>
    void
    once(const std::string &key, F &&fn)
    {
        std::promise<void> mine;
        std::shared_future<void> done;
        bool first = false;
        {
            std::lock_guard<std::mutex> lock(m_);
            auto it = map_.find(key);
            if (it == map_.end()) {
                done = mine.get_future().share();
                map_.emplace(key, done);
                first = true;
            } else {
                done = it->second;
            }
        }
        if (first) {
            fn();
            mine.set_value();
        } else {
            done.wait();
        }
    }

  private:
    std::mutex m_;
    std::map<std::string, std::shared_future<void>> map_;
};

/**
 * fetchTrace() classified by the counters across it: a capture (the
 * full core ran), a store load (mmap of a stored trace) or a cache hit.
 * Captures and store loads are exclusive per key (OnceGate), and the
 * workloads never mix them, so another thread's concurrent fetch cannot
 * flip the classification.
 */
const CapturedTrace &
tracedFetch(const isa::Program &program, const RunSpec &spec,
            CapturedTrace &fallback, bool topLevel)
{
    if (!tracer.on)
        return fetchTrace(program, spec, fallback);
    const Counters before = Counters::read();
    const int64_t t0 = nowNs();
    const CapturedTrace &trace = fetchTrace(program, spec, fallback);
    const int64_t t1 = nowNs();
    const Counters after = Counters::read();
    std::string layer;
    if (after.captures > before.captures)
        layer = "capture";
    else if (after.storeHits > before.storeHits)
        layer = "store.load";
    if (!layer.empty())
        tracer.add(layer, t0, t1,
                   layer == "capture" ? trace.cycles() : 0);
    if (topLevel)
        tracer.top(layer.empty() ? "fetchTrace (cache hit)"
                                 : "fetchTrace (" + layer + ")",
                   !layer.empty(), t0, t1);
    return trace;
}

OnceGate traceGate;
OnceGate solveGate;

/** runWorkload() with its trace fetch, threshold solve and the run
    itself each in their own span. */
VoltageSimResult
tracedRun(const isa::Program &program, const RunSpec &spec)
{
    if (spec.controllerEnabled) {
        const std::string key = std::to_string(spec.impedanceScale) +
                                "/" + std::to_string(spec.delayCycles) +
                                "/" + std::to_string(spec.sensorError);
        solveGate.once(key, [&] {
            const int64_t t0 = nowNs();
            referenceThresholds(spec.impedanceScale, spec.delayCycles,
                                spec.sensorError);
            tracer.add("solver", t0, nowNs());
        });
        const int64_t t0 = nowNs();
        VoltageSimResult r = runWorkload(program, spec);
        tracer.add("closed_loop", t0, nowNs(), r.cycles);
        return r;
    }
    const VoltageSimConfig cfg = makeSimConfig(spec);
    traceGate.once(traceKey(program, cfg.cpu, cfg.power, spec.maxCycles,
                            spec.maxInsts),
                   [&] {
                       CapturedTrace fallback;
                       tracedFetch(program, spec, fallback, false);
                   });
    const int64_t t0 = nowNs();
    VoltageSimResult r = runWorkload(program, spec);
    tracer.add("replay", t0, nowNs(), r.cycles);
    return r;
}

/** compareControlled() through tracedRun(), same legs and arithmetic. */
Comparison
tracedCompare(const isa::Program &program, const RunSpec &spec)
{
    Comparison cmp;
    RunSpec probe = spec;
    probe.controllerEnabled = false;
    const uint64_t work = tracedRun(program, probe).committed;

    RunSpec base = spec;
    base.controllerEnabled = false;
    base.maxInsts = work;
    base.maxCycles = spec.maxCycles * 8;
    cmp.baseline = tracedRun(program, base);

    RunSpec ctl = spec;
    ctl.controllerEnabled = true;
    ctl.maxInsts = work;
    ctl.maxCycles = spec.maxCycles * 8;
    cmp.controlled = tracedRun(program, ctl);

    if (cmp.baseline.cycles > 0 && cmp.baseline.energyJ > 0.0) {
        cmp.perfLossPct = 100.0 *
                          (static_cast<double>(cmp.controlled.cycles) -
                           static_cast<double>(cmp.baseline.cycles)) /
                          static_cast<double>(cmp.baseline.cycles);
        cmp.energyIncreasePct =
            100.0 * (cmp.controlled.energyJ - cmp.baseline.energyJ) /
            cmp.baseline.energyJ;
    }
    return cmp;
}

/** Process CPU seconds burnt by the traced campaign (parallel_eff). */
double campaignCpuS = 0.0;

/**
 * The campaign, untraced through CampaignEngine::run, traced through
 * the engine's pool with the same seeds and aggregation.
 */
CampaignResult
runCampaign(const CampaignEngine &engine, std::vector<CampaignJob> jobs)
{
    if (!tracer.on)
        return engine.run(std::move(jobs));
    const double cpu0 = processCpuSeconds();
    CampaignResult out = timed("campaign", "campaign", [&] {
        CampaignResult res;
        res.campaignSeed = engine.options().campaignSeed;
        res.threadsUsed = static_cast<unsigned>(std::min<size_t>(
            engine.threads(), std::max<size_t>(jobs.size(), 1)));
        res.runs.resize(jobs.size());
        engine.forEach(jobs.size(), [&](size_t i) {
            const CampaignJob &job = jobs[i];
            RunResult &rr = res.runs[i];
            rr.index = i;
            rr.name = job.name;
            RunSpec spec = job.spec;
            spec.noiseSeed = deriveRunSeed(res.campaignSeed, i);
            rr.spec = spec;
            if (job.compare) {
                rr.comparison = tracedCompare(job.program, spec);
                rr.sim = rr.comparison->controlled;
            } else {
                rr.sim = tracedRun(job.program, spec);
            }
        });
        aggregateCampaignRuns(res);
        return res;
    });
    campaignCpuS = processCpuSeconds() - cpu0;
    return out;
}

// ---------------------------------------------------------------------
// Operations.

std::string
laneText(uint64_t cycles, double minV, double maxV, uint64_t low,
         uint64_t high, const Histogram &h)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu %.17g %.17g %llu %llu",
                  static_cast<unsigned long long>(cycles), minV, maxV,
                  static_cast<unsigned long long>(low),
                  static_cast<unsigned long long>(high));
    std::string s = buf;
    for (size_t i = 0; i < h.bins(); ++i)
        s += " " + std::to_string(h.count(i));
    s += " " + std::to_string(h.underflow()) + " " +
         std::to_string(h.overflow()) + "\n";
    return s;
}

RunSpec
openLoop(double scale, uint64_t cycles)
{
    RunSpec rs;
    rs.impedanceScale = scale;
    rs.controllerEnabled = false;
    rs.maxCycles = cycles;
    return rs;
}

std::string
pct(double scale)
{
    return std::to_string(static_cast<int>(100.0 * scale)) + "%";
}

struct OpResult
{
    std::map<std::string, std::string> digests;
    std::map<std::string, bool> checks;
    workloads::StressmarkParams stress;
    uint64_t campaignRuns = 0;
    uint64_t sweepLaneCycles = 0;
    uint64_t chipCoreCycles = 0;
};

const std::vector<double> kScales{1.0, 2.0, 3.0, 4.0};

/** Table 2 as tab02_spec_emergencies runs it, plus (replay_warm) the
    chip table as one batched MulticoreSim pass. */
void
tableTwo(Workload w, uint64_t seed, const CampaignEngine &engine,
         OpResult &res)
{
    const auto &names = workloads::specBenchmarkNames();
    std::vector<CampaignJob> jobs = timed("build SPEC proxies", "", [&] {
        std::vector<CampaignJob> js;
        for (const auto &name : names) {
            const isa::Program prog = specProgram(name, seed);
            for (const double s : kScales)
                js.push_back({name + "@" + pct(s), prog,
                              openLoop(s, kTab02Cycles), false});
        }
        return js;
    });
    const unsigned period = timed(
        "referencePackage", "experiments.reference", [] {
            return pdn::PackageModel(referencePackage(2.0))
                .resonantPeriodCycles();
        });
    res.stress = timed("StressmarkBuilder::calibrate",
                       "workloads.calibrate", [&] {
                           return workloads::StressmarkBuilder::calibrate(
                                      period, referenceMachine().cpu)
                               .params;
                       });
    const isa::Program stress =
        workloads::StressmarkBuilder::build(res.stress);
    for (const double s : kScales)
        jobs.push_back({"stressmark@" + pct(s), stress,
                        openLoop(s, kTab02Cycles), false});

    res.campaignRuns = jobs.size();
    const CampaignResult campaign = runCampaign(engine, std::move(jobs));

    bool quietAt100 = true;
    bool stressBreaches = true;
    for (size_t b = 0; b <= names.size(); ++b)
        for (size_t i = 0; i < kScales.size(); ++i) {
            const auto &sim = campaign.runs[b * kScales.size() + i].sim;
            if (kScales[i] == 1.0)
                quietAt100 = quietAt100 && sim.emergencyCycles() == 0;
            if (b == names.size() && kScales[i] >= 2.0)
                stressBreaches =
                    stressBreaches && sim.emergencyCycles() > 0;
        }
    res.checks["no_emergency_at_100pct"] = quietAt100;
    res.checks["stressmark_breaches_from_200pct"] = stressBreaches;
    res.digests["tab02"] = timed("jsonl digest", "", [&] {
        return hex(fnv1a(campaign.jsonl()));
    });

    // The 13-lane fine sweep of the stressmark trace.
    {
        const RunSpec rs = openLoop(1.0, kTab02Cycles);
        CapturedTrace fallback;
        const CapturedTrace &trace =
            tracedFetch(stress, rs, fallback, true);
        const VoltageSimConfig cfg = makeSimConfig(rs);
        const double iTrim =
            power::WattchModel(cfg.power, cfg.cpu).minCurrent();
        std::vector<SweepLane> lanes;
        for (double s = 1.0; s <= 4.0 + 1e-9; s += 0.25)
            lanes.push_back({referencePackage(s), iTrim, cfg.band,
                             cfg.histLo, cfg.histHi, cfg.histBins});
        const auto swept = timed("replaySweep", "replay_sweep", [&] {
            return replaySweep(trace.ampsData(), trace.cycles(), lanes);
        });
        res.sweepLaneCycles = lanes.size() * trace.cycles();
        std::string text;
        for (const auto &r : swept)
            text += laneText(r.cycles, r.minV, r.maxV,
                             r.lowEmergencyCycles, r.highEmergencyCycles,
                             r.voltageHist);
        res.digests["fine_sweep"] = hex(fnv1a(text));
    }
    if (w != Workload::ReplayWarm)
        return;

    // Chip table (tab_chip_emergencies' batched pass) on a longer
    // stressmark trace.
    const RunSpec rs = openLoop(2.0, kChipCycles);
    CapturedTrace fallback;
    const CapturedTrace &trace = tracedFetch(stress, rs, fallback, true);
    const std::vector<ChipSpec> chips = timed("chip specs", "", [&] {
        const Machine m = referenceMachine();
        const VoltageSimConfig refCfg = makeSimConfig(rs);
        const double iGate =
            power::WattchModel(refCfg.power, refCfg.cpu).minCurrent();
        std::vector<ChipSpec> cs;
        for (const size_t n : {1, 2, 4, 8, 16, 32, 64}) {
            const double s = 1.0 / static_cast<double>(n);
            const pdn::PackageParams pkg =
                pdn::PackageModel::design(
                    50e6, 2.0 * referenceTarget().zTargetOhms * s,
                    0.5e-3 * s, 0.25e-3 * s, m.cpu.clockHz, m.power.vdd)
                    .params();
            for (const int align : {0, 1, 2}) {
                ChipSpec chip;
                chip.package = pkg;
                chip.iTrim = iGate * static_cast<double>(n);
                chip.band = refCfg.band;
                chip.histLo = refCfg.histLo;
                chip.histHi = refCfg.histHi;
                chip.histBins = refCfg.histBins;
                for (size_t i = 0; i < n; ++i) {
                    // synced, staggered over T, adversarial over T/4.
                    const size_t off =
                        align == 0   ? 0
                        : align == 1 ? i * period / n
                                     : i * period / (4 * n);
                    chip.cores.push_back({&trace, off, iGate, 0.0});
                }
                cs.push_back(std::move(chip));
            }
        }
        return cs;
    });
    size_t cores = 0;
    for (const ChipSpec &c : chips)
        cores += c.cores.size();
    const std::vector<ChipResult> chipRes =
        timed("MulticoreSim::run", "multicore", [&] {
            return runChips(chips, trace.cycles());
        });
    res.chipCoreCycles = cores * trace.cycles();
    std::string text;
    for (const ChipResult &r : chipRes)
        text += laneText(r.cycles, r.minV, r.maxV, r.lowEmergencyCycles,
                         r.highEmergencyCycles, r.voltageHist);
    res.digests["chip"] = hex(fnv1a(text));
}

/** Figs. 14-15: SPEC-8 + stressmark x delay 0-6, compareControlled on
    the 200 % package. */
void
delaySweep(uint64_t seed, const workloads::StressmarkParams &params,
           const CampaignEngine &engine, OpResult &res)
{
    res.stress = params;
    std::vector<CampaignJob> jobs =
        timed("build SPEC-8 + stressmark", "", [&] {
            const isa::Program stress =
                workloads::StressmarkBuilder::build(params);
            std::vector<isa::Program> progs;
            for (const auto &name : workloads::emergencySetNames())
                progs.push_back(specProgram(name, seed));
            std::vector<CampaignJob> js;
            for (unsigned d = 0; d <= kMaxDelay; ++d) {
                RunSpec rs;
                rs.impedanceScale = 2.0;
                rs.delayCycles = d;
                rs.actuator = ActuatorKind::Ideal;
                rs.maxCycles = kDelayCycles;
                const auto &names = workloads::emergencySetNames();
                for (size_t k = 0; k < names.size(); ++k)
                    js.push_back({names[k] + "@d" + std::to_string(d),
                                  progs[k], rs, true});
                js.push_back({"stressmark@d" + std::to_string(d), stress,
                              rs, true});
            }
            return js;
        });
    if (tracer.on)
        timed("referenceTarget", "experiments.reference",
              [] { return referenceTarget(); });
    res.campaignRuns = jobs.size();
    const CampaignResult campaign = runCampaign(engine, std::move(jobs));
    bool controlledClean = true;
    for (const RunResult &rr : campaign.runs)
        controlledClean = controlledClean &&
                          rr.comparison->controlled.emergencyCycles() == 0;
    res.checks["no_controlled_emergency_at_any_delay"] = controlledClean;
    res.digests["delay_sweep"] = timed("jsonl digest", "", [&] {
        return hex(fnv1a(campaign.jsonl()));
    });
}

void
emitLayer(JsonWriter &j, const char *name, const LayerAcc &a)
{
    j.key(name).beginObject();
    j.field("s", a.seconds);
    j.field("calls", a.calls);
    j.field("units", a.units);
    j.endObject();
}

int
runOp(Workload w, uint64_t seed, const std::string &store,
      const std::string &stressArg)
{
    if (!store.empty())
        TraceStore::instance().configure(store, size_t{4096} << 20);

    CampaignEngine::Options opts;
    opts.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    opts.campaignSeed = campaignSeed(seed);
    const CampaignEngine engine(opts);

    OpResult res;
    if (w == Workload::DelaySweepClosed) {
        if (stressArg.empty())
            usage("delay_sweep_closed needs --stress");
        delaySweep(seed, parseStress(stressArg), engine, res);
    } else {
        tableTwo(w, seed, engine, res);
    }
    const Counters c = Counters::read();

    JsonWriter j;
    j.beginObject();
    j.field("stress", stressText(res.stress));
    j.key("digests").beginObject();
    for (const auto &[k, v] : res.digests)
        j.field(k, v);
    j.endObject();
    j.key("checks").beginObject();
    for (const auto &[k, v] : res.checks)
        j.field(k, v);
    j.endObject();
    j.key("counters").beginObject();
    j.field("trace_cache.captures", c.captures);
    j.field("trace_cache.hits", c.cacheHits);
    j.field("trace_cache.misses", c.cacheMisses);
    j.field("trace_cache.bytes", uint64_t{c.cacheBytes});
    j.field("store.hits", c.storeHits);
    j.field("store.misses", c.storeMisses);
    j.field("store.rejects", c.storeRejects);
    j.field("store.mapped_bytes", uint64_t{c.mappedBytes});
    j.field("solver.solves", c.solves);
    j.endObject();
    if (tracer.on) {
        j.key("trace").beginObject();
        j.field("threads", engine.threads());
        j.field("campaign_runs", res.campaignRuns);
        j.field("campaign_cpu_s", campaignCpuS);
        j.field("sweep_lane_cycles", res.sweepLaneCycles);
        j.field("chip_core_cycles", res.chipCoreCycles);
        j.key("layers").beginObject();
        for (const char *name :
             {"experiments.reference", "workloads.calibrate", "campaign",
              "capture", "replay", "closed_loop", "solver", "store.load",
              "replay_sweep", "multicore"})
            emitLayer(j, name, tracer.layer(name));
        j.endObject();
        j.key("calls").beginArray();
        for (const TopCall &t : tracer.topCalls()) {
            j.beginObject();
            j.field("name", t.name);
            j.field("layer", t.layer);
            j.field("start_ns", t.startNs);
            j.field("end_ns", t.endNs);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endObject();
    std::printf("%s\n", j.take().c_str());
    return 0;
}

/**
 * Median over the probe's passes of ns per unit spent in @p run, each
 * pass on a fresh state from @p make (constructed outside the timing).
 */
template <typename Make, typename Run>
double
medianNsPer(double units, Make &&make, Run &&run)
{
    std::vector<double> t;
    for (size_t p = 0; p < kProbePasses; ++p) {
        auto state = make();
        const int64_t t0 = nowNs();
        run(state);
        t.push_back(static_cast<double>(nowNs() - t0) / units);
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

/**
 * Per-stage ns per simulated cycle on the workload's own programs: the
 * core's cycle(), Wattch's currentBlock over the activity the core
 * produced, and the PDN's stepMany / 13-lane stepShared over the amps
 * Wattch produced (which are the captured trace's first cycles).
 */
int
runProbe(Workload w, uint64_t seed, const std::string &stressArg)
{
    if (stressArg.empty())
        usage("probe needs --stress");
    std::vector<isa::Program> progs;
    const auto &names = w == Workload::DelaySweepClosed
                            ? workloads::emergencySetNames()
                            : workloads::specBenchmarkNames();
    for (const auto &name : names)
        progs.push_back(specProgram(name, seed));
    progs.push_back(
        workloads::StressmarkBuilder::build(parseStress(stressArg)));

    const Machine m = referenceMachine();
    const RunSpec rs = openLoop(1.0, kTab02Cycles);
    const VoltageSimConfig cfg = makeSimConfig(rs);
    const double iTrim = power::WattchModel(m.power, m.cpu).minCurrent();
    std::vector<pdn::LaneConfig> lanes;
    for (double s = 1.0; s <= 4.0 + 1e-9; s += 0.25)
        lanes.push_back({referencePackage(s), iTrim});

    const double n = static_cast<double>(kProbeCycles);
    std::vector<double> coreNs, powerNs, pdnNs, laneNs;
    std::vector<cpu::ActivityVector> avs(kProbeCycles);
    std::vector<double> amps(kProbeCycles), volts(kProbeCycles);
    std::vector<double> laneVolts(VoltageSim::kBlockCycles * lanes.size());
    for (const isa::Program &prog : progs) {
        coreNs.push_back(medianNsPer(
            n, [&] { return cpu::OoOCore(m.cpu, prog); },
            [&](cpu::OoOCore &core) {
                for (size_t k = 0; k < kProbeCycles; ++k)
                    avs[k] = core.cycle();
            }));
        powerNs.push_back(medianNsPer(
            n, [&] { return power::WattchModel(m.power, m.cpu); },
            [&](power::WattchModel &model) {
                model.currentBlock(avs.data(), kProbeCycles, amps.data());
            }));
        pdnNs.push_back(medianNsPer(
            n,
            [&] {
                pdn::PdnSim sim{pdn::PackageModel(cfg.package)};
                sim.trimToCurrent(iTrim);
                return sim;
            },
            [&](pdn::PdnSim &sim) {
                sim.stepMany(amps.data(), kProbeCycles, volts.data());
            }));
        laneNs.push_back(medianNsPer(
            n * static_cast<double>(lanes.size()),
            [&] { return pdn::makeBackend(pdn::BackendKind::Batched, lanes); },
            [&](std::unique_ptr<pdn::PdnBackend> &backend) {
                for (size_t k = 0; k < kProbeCycles;
                     k += VoltageSim::kBlockCycles)
                    backend->stepShared(amps.data() + k,
                                        VoltageSim::kBlockCycles,
                                        laneVolts.data());
            }));
    }
    const auto mean = [](const std::vector<double> &v) {
        double s = 0.0;
        for (const double x : v)
            s += x;
        return s / static_cast<double>(v.size());
    };
    JsonWriter j;
    j.beginObject();
    j.field("programs", uint64_t{progs.size()});
    j.field("cycles_per_program", uint64_t{kProbeCycles});
    j.field("cpu.cycle_ns", mean(coreNs));
    j.field("power.current_ns", mean(powerNs));
    j.field("pdn.step_ns", mean(pdnNs));
    j.field("pdn.lane_step_ns", mean(laneNs));
    j.endObject();
    std::printf("%s\n", j.take().c_str());
    return 0;
}

int
runCalibrate()
{
    const auto cal = workloads::StressmarkBuilder::calibrate(
        pdn::PackageModel(referencePackage(2.0)).resonantPeriodCycles(),
        referenceMachine().cpu);
    JsonWriter j;
    j.beginObject();
    j.field("stress", stressText(cal.params));
    j.endObject();
    std::printf("%s\n", j.take().c_str());
    return 0;
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage((flag + " wants an unsigned integer").c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("usage: vgbench op|calibrate|probe ...");
    const std::string mode = argv[1];
    if (mode == "calibrate")
        return runCalibrate();
    if (argc < 3)
        usage("missing workload");
    const Workload w = parseWorkload(argv[2]);
    uint64_t seed = 0;
    std::string store, stress;
    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--seed")
            seed = parseUnsigned(a, next());
        else if (a == "--store")
            store = next();
        else if (a == "--stress")
            stress = next();
        else if (a == "--trace")
            tracer.on = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (mode == "op")
        return runOp(w, seed, store, stress);
    if (mode == "probe")
        return runProbe(w, seed, stress);
    usage(("unknown mode " + mode).c_str());
}
