#include "core/voltage_sim.hpp"

#include <algorithm>

#include "obs/tracing.hpp"
#include "pdn/impulse.hpp"
#include "util/logging.hpp"

namespace vguard::core {

VoltageSim::VoltageSim(const VoltageSimConfig &cfg, isa::Program program)
    : cfg_(cfg), core_(cfg.cpu, std::move(program)),
      power_(cfg.power, cfg.cpu),
      pdn_(pdn::PackageModel(cfg.package)),
      actuator_(cfg.actuator, cfg.phantomActuator.value_or(cfg.actuator)),
      vNominal_(cfg.package.vNominal),
      tracker_(cfg.package.vNominal * (1.0 - cfg.band),
               cfg.package.vNominal * (1.0 + cfg.band),
               kFingerprintWindow, kMaxEvents),
      vMinSeen_(cfg.package.vNominal), vMaxSeen_(cfg.package.vNominal)
{
    // Paper regulator convention: the die sits at nominal voltage when
    // the processor draws its minimum (fully gated) current.
    const double iMin = power_.minCurrent();
    pdn_.trimToCurrent(iMin);

    if (cfg_.useConvolution) {
        conv_ = std::make_unique<pdn::PartitionedConvolver>(
            pdn::impulseResponse(pdn_.model()), pdn_.vddSetPoint(), iMin);
    }
    if (cfg_.sensor)
        sensor_.emplace(*cfg_.sensor);

    // Bind every component into the hierarchical registry (gem5
    // style: counters stay plain members; the registry reads them at
    // snapshot time).
    core_.registerStats(registry_, "cpu");
    power_.registerStats(registry_, "power", 1.0 / cfg_.cpu.clockHz);
    pdn_.registerStats(registry_, "pdn");
    if (sensor_) {
        sensor_->registerStats(registry_, "ctrl.sensor");
        actuator_.registerStats(registry_, "ctrl.actuator");
    }

    registry_.derivedCounter("pdn.emergencies.count",
                             "cycles outside the operating band",
                             [this] { return emLow_ + emHigh_; });
    registry_.derivedCounter("pdn.emergencies.low",
                             "cycles below the band",
                             [this] { return emLow_; });
    registry_.derivedCounter("pdn.emergencies.high",
                             "cycles above the band",
                             [this] { return emHigh_; });
    registry_.derivedCounter(
        "pdn.emergencies.episodes",
        "distinct band excursions (event-log entries + dropped)",
        [this] { return tracker_.log().total(); });
    registry_.derivedCounter("pdn.emergencies.dropped",
                             "episodes dropped by the full event log",
                             [this] { return tracker_.log().dropped(); });
    registry_.derivedCounter(
        "pdn.emergencies.logged",
        "episodes retained in the bounded event log",
        [this] { return uint64_t{tracker_.log().events().size()}; });
    registry_.derivedGauge("pdn.v.min", "lowest die voltage seen [V]",
                           [this] { return vMinSeen_; },
                           obs::MergeRule::Min);
    registry_.derivedGauge("pdn.v.max", "highest die voltage seen [V]",
                           [this] { return vMaxSeen_; },
                           obs::MergeRule::Max);
}

TraceSample
VoltageSim::step()
{
    const cpu::ActivityVector &av = core_.cycle();
    lastAv_ = &av;
    const double amps = power_.current(av);
    const double volts =
        cfg_.useConvolution ? conv_->step(amps) : pdn_.step(amps);
    if (sensor_) {
        lastLevel_ = sensor_->observe(volts);
        actuator_.apply(lastLevel_, core_);
    }

    TraceSample s;
    s.cycle = cycle_++;
    s.amps = amps;
    s.volts = volts;
    s.gated = av.gates.any();
    s.phantom = av.phantom.any();
    return s;
}

void
VoltageSim::accountCycle(
    uint64_t cycle, double amps, double volts,
    const obs::FpCounts &counts,
    const obs::EmergencyTracker::ControlState &ctrl,
    VoltageSimResult &res, RunAccum &acc)
{
    acc.energy += amps * cfg_.power.vdd * acc.dt;
    res.add(volts);
    tracker_.step(cycle, volts, counts, ctrl);
}

VoltageSimResult
VoltageSim::beginRun()
{
    VoltageSimResult res;
    res.reset(vNominal_, cfg_.band, cfg_.histLo, cfg_.histHi,
              cfg_.histBins);
    tracker_.clear();
    return res;
}

void
VoltageSim::finishRun(VoltageSimResult &res, const RunAccum &acc,
                      uint64_t committed)
{
    tracker_.finish();
    emLow_ += res.lowEmergencyCycles;
    emHigh_ += res.highEmergencyCycles;
    vMinSeen_ = std::min(vMinSeen_, res.minV);
    vMaxSeen_ = std::max(vMaxSeen_, res.maxV);

    res.committed = committed;
    res.ipc = res.cycles
                  ? static_cast<double>(committed) / res.cycles
                  : 0.0;
    res.energyJ = acc.energy;
    res.avgPowerW =
        res.cycles ? acc.energy / (res.cycles * acc.dt) : 0.0;
    res.events = tracker_.log();
}

void
VoltageSim::runClosedLoop(uint64_t maxCycles, uint64_t maxInsts,
                          VoltageSimResult &res, RunAccum &acc)
{
    while (res.cycles < maxCycles && !core_.halted() &&
           core_.stats().committed < maxInsts) {
        const TraceSample s = step();

        obs::EmergencyTracker::ControlState ctrl;
        if (sensor_) {
            ctrl.sensorLevel = static_cast<int>(lastLevel_);
            ctrl.sensorReading = sensor_->lastReading();
        }
        ctrl.gating = s.gated;
        ctrl.phantom = s.phantom;
        accountCycle(s.cycle, s.amps, s.volts,
                     obs::fpChannelCounts(*lastAv_), ctrl, res, acc);
    }
}

// vlint: hot
void
VoltageSim::runBlock(const double *amps, const obs::FpCounts *activity,
                     size_t n,
                     const obs::EmergencyTracker::ControlState &ctrl,
                     VoltageSimResult &res, RunAccum &acc)
{
    if (cfg_.useConvolution) {
        for (size_t k = 0; k < n; ++k)
            voltsBuf_[k] = conv_->step(amps[k]);
    } else {
        pdn_.stepMany(amps, n, voltsBuf_.data());
    }
    for (size_t k = 0; k < n; ++k) {
        accountCycle(cycle_, amps[k], voltsBuf_[k], activity[k], ctrl,
                     res, acc);
        ++cycle_;
    }
}

void
VoltageSim::runOpenLoop(uint64_t maxCycles, uint64_t maxInsts,
                        VoltageSimResult &res, RunAccum &acc,
                        CapturedTrace *capture)
{
    avBuf_.resize(kBlockCycles);
    ampsBuf_.resize(kBlockCycles);
    countsBuf_.resize(kBlockCycles);
    voltsBuf_.resize(kBlockCycles);
    if (capture) {
        // Reserve once instead of doubling; capped for runs whose real
        // bound is maxInsts.
        const size_t want = capture->amps.size() +
                            std::min(maxCycles, uint64_t{1} << 22);
        capture->amps.reserve(want);
        capture->activity.reserve(want);
    }

    while (res.cycles < maxCycles && !core_.halted() &&
           core_.stats().committed < maxInsts) {
        // Gather a block of activity vectors, re-checking the loop
        // bounds before every core cycle exactly like the per-cycle
        // path (the limits may bind mid-block).
        size_t n = 0;
        while (n < kBlockCycles && res.cycles + n < maxCycles &&
               !core_.halted() && core_.stats().committed < maxInsts) {
            avBuf_[n] = core_.cycle();
            ++n;
        }
        if (n == 0)
            break;

        power_.currentBlock(avBuf_.data(), n, ampsBuf_.data());
        for (size_t k = 0; k < n; ++k)
            countsBuf_[k] = obs::fpChannelCounts(avBuf_[k]);
        if (capture) {
            capture->amps.insert(capture->amps.end(), ampsBuf_.begin(),
                                 ampsBuf_.begin() + n);
            capture->activity.insert(capture->activity.end(),
                                     countsBuf_.begin(),
                                     countsBuf_.begin() + n);
        }
        // No controller drives the actuator in open loop, so the
        // core's gate/phantom state is the same for the whole block.
        obs::EmergencyTracker::ControlState ctrl;
        ctrl.gating = avBuf_[0].gates.any();
        ctrl.phantom = avBuf_[0].phantom.any();
        runBlock(ampsBuf_.data(), countsBuf_.data(), n, ctrl, res, acc);
    }
    if (capture) { // a run stopped early (halt, maxInsts) keeps no slack
        capture->amps.shrink_to_fit();
        capture->activity.shrink_to_fit();
    }
}

VoltageSimResult
VoltageSim::run(uint64_t maxCycles, uint64_t maxInsts,
                CapturedTrace *capture)
{
    // Capturing a closed-loop run would bake one package's actuation
    // feedback into the trace; only open-loop runs are cacheable.
    VGUARD_CHECK(!capture || !sensor_);

    // Each run() reports its own actuation counts: clear the actuator
    // counters without disturbing the control loop's physical state
    // (sensor delay line, gating commands already in flight).
    actuator_.reset();

    // Registry counters are cumulative, so diff a snapshot taken here.
    VoltageSimResult res = beginRun();
    const obs::Snapshot before = registry_.snapshot();
    RunAccum acc{0.0, 1.0 / cfg_.cpu.clockHz};

    if (sensor_)
        runClosedLoop(maxCycles, maxInsts, res, acc);
    else
        runOpenLoop(maxCycles, maxInsts, res, acc, capture);

    finishRun(res, acc, core_.stats().committed);
    res.gatedCycles = actuator_.gatedCycles();
    res.phantomCycles = actuator_.phantomCycles();
    res.lowTriggers = actuator_.lowTriggers();
    res.highTriggers = actuator_.highTriggers();
    res.stats = registry_.snapshot().diff(before);

    if (capture) {
        capture->committed = res.committed;
        capture->halted = core_.halted();
        capture->frontEnd = frontEndSubset(res.stats);
    }
    return res;
}

// vlint: hot
VoltageSimResult
VoltageSim::runReplay(const CapturedTrace &trace, size_t blockCycles)
{
    // Replay is only defined for open-loop configs: a controller would
    // need the real core to actuate, which the trace has elided.
    VGUARD_CHECK(!sensor_);
    VGUARD_CHECK(blockCycles > 0);
    VGUARD_CHECK(trace.mapping ||
                 trace.amps.size() == trace.activity.size());

    // One Wall span for the whole replay (block loop below runs
    // thousands of cycles per iteration — no per-cycle events).
    obs::TraceSpan span("replay.run", obs::TraceClass::Wall);
    span.arg("cycles", uint64_t{trace.cycles()});

    VoltageSimResult res = beginRun();
    const obs::Snapshot before = registry_.snapshot();
    RunAccum acc{0.0, 1.0 / cfg_.cpu.clockHz};

    // vlint: allow(alloc-hot) block scratch sized once per replay
    voltsBuf_.resize(blockCycles);

    // Open-loop runs never gate: the default ControlState matches what
    // the full-core path records.
    const size_t total = trace.cycles();
    for (size_t done = 0; done < total; done += blockCycles) {
        const size_t n = std::min(blockCycles, total - done);
        runBlock(trace.ampsData() + done, trace.activityData() + done, n,
                 obs::EmergencyTracker::ControlState{}, res, acc);
    }

    finishRun(res, acc, trace.committed);

    // The live diff reports zeroed cpu.*/power.* entries (the core and
    // power model never stepped); splice the capture run's front-end
    // entries in verbatim so the snapshot matches a full-core run.
    res.stats = registry_.snapshot().diff(before);
    for (const auto &e : trace.frontEnd.entries())
        res.stats.upsertEntry(e);
    return res;
}

} // namespace vguard::core
