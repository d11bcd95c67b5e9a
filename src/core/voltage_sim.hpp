/**
 * @file
 * The coupled voltage simulation (paper Fig. 7): cycle core → Wattch
 * power → current → PDN → die voltage → threshold controller → gating,
 * closed every CPU cycle.
 *
 * Supports both voltage back-ends — direct state-space stepping and
 * the paper's convolution-with-impulse-response pipeline — which are
 * verified equivalent in tests.
 *
 * Runs without a controller (open loop, no actuation feedback) take
 * one batched block kernel: the PDN steps a block of amps through
 * PdnSim::stepMany (or the convolver), then the per-cycle bookkeeping
 * sweeps the block from per-cycle fingerprint counts (obs::FpCounts).
 * Two paths feed it:
 *
 *  - run() batches open-loop runs: activity vectors are gathered in
 *    blocks, converted to amps by WattchModel::currentBlock and to
 *    counts by obs::fpChannelCounts, then handed to the kernel.
 *    Optionally captures the current/activity trace for the cache
 *    (core/trace_cache.hpp).
 *  - runReplay() skips the core and power model entirely and hands
 *    the kernel slices of a captured trace; front-end stats are
 *    spliced in from the capture.
 *
 * Replay therefore matches capture by construction: both run the same
 * kernel over the same amps and counts.
 */

#ifndef VGUARD_CORE_VOLTAGE_SIM_HPP
#define VGUARD_CORE_VOLTAGE_SIM_HPP

#include <memory>
#include <optional>

#include "core/actuator.hpp"
#include "core/sensor.hpp"
#include "core/trace_cache.hpp"
#include "cpu/core.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "pdn/partitioned_convolver.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"
#include "util/stats.hpp"

namespace vguard::core {

/** Configuration of one coupled simulation. */
struct VoltageSimConfig
{
    cpu::CpuConfig cpu;
    power::PowerConfig power;
    pdn::PackageParams package;  ///< from PackageModel::design(...)
    double band = 0.05;          ///< emergency band (fraction of vNom)

    /** Controller; disengaged when unset (characterisation runs). */
    std::optional<SensorConfig> sensor;
    ActuatorKind actuator = ActuatorKind::Ideal;
    /** Distinct phantom-fire unit set (defaults to `actuator`). */
    std::optional<ActuatorKind> phantomActuator;

    /** Use the convolution back-end instead of state space. */
    bool useConvolution = false;

    /** Voltage histogram range/bins (Fig. 10). */
    double histLo = 0.90;
    double histHi = 1.10;
    size_t histBins = 80;
};

/** Activity-fingerprint window per emergency event [cycles]. */
constexpr size_t kFingerprintWindow = 32;
/** Emergency event-log capacity per run. */
constexpr size_t kMaxEvents = 4096;

/** Results of a run: the rail tally (cycles, minV/maxV, emergency
    counts, voltage histogram) plus the core and controller side. */
struct VoltageSimResult : RailTally
{
    uint64_t committed = 0;
    double ipc = 0.0;
    double energyJ = 0.0;
    double avgPowerW = 0.0;
    uint64_t gatedCycles = 0;
    uint64_t phantomCycles = 0;
    uint64_t lowTriggers = 0;
    uint64_t highTriggers = 0;

    /** Per-run hierarchical stats (interval diff of the registry). */
    obs::Snapshot stats;
    /** Emergency episodes of this run, each with its fingerprint. */
    obs::EventLog events;

    double
    emergencyFrequency() const
    {
        return cycles ? static_cast<double>(emergencyCycles()) / cycles
                      : 0.0;
    }
};

/** One cycle of trace output (for Fig. 11-style plots). */
struct TraceSample
{
    uint64_t cycle = 0;
    double amps = 0.0;
    double volts = 0.0;
    bool gated = false;
    bool phantom = false;
};

/** The coupled simulator. */
class VoltageSim
{
  public:
    VoltageSim(const VoltageSimConfig &cfg, isa::Program program);

    // The stats registry binds callbacks to component addresses, so
    // the sim must stay put.
    VoltageSim(const VoltageSim &) = delete;
    VoltageSim &operator=(const VoltageSim &) = delete;

    /**
     * Advance one cycle; returns the sample (current, voltage,
     * controller state).
     */
    TraceSample step();

    /** Cycles per block in the batched open-loop/replay pipelines. */
    static constexpr size_t kBlockCycles = 256;

    /**
     * Run until @p maxCycles cycles or @p maxInsts committed
     * instructions (whichever first) or program halt.
     *
     * When @p capture is non-null the run also records the per-cycle
     * current waveform + activity fingerprint stream into it (legal
     * only without a controller — capture of a closed-loop run would
     * bake one package's actuation into the trace).
     */
    VoltageSimResult run(uint64_t maxCycles, uint64_t maxInsts = ~0ull,
                         CapturedTrace *capture = nullptr);

    /**
     * Replay a captured open-loop trace against this sim's PDN (and
     * voltage back-end), skipping the core and power model. Requires a
     * controller-free config whose (cpu, power) match the capture —
     * the result (including stats and emergency events) is
     * byte-identical to a fresh full-core run().
     */
    VoltageSimResult runReplay(const CapturedTrace &trace,
                               size_t blockCycles = kBlockCycles);

    bool halted() const { return core_.halted(); }
    const cpu::OoOCore &core() const { return core_; }
    /** Mutable core access for external controllers (e.g. PID). */
    cpu::OoOCore &core() { return core_; }
    const power::WattchModel &powerModel() const { return power_; }
    const VoltageSimConfig &config() const { return cfg_; }

  private:
    /** Per-run energy accumulator shared by the three loop bodies. */
    struct RunAccum
    {
        double energy = 0.0;
        double dt = 0.0;
    };

    /** Open a run: empty result tally, fresh event window. */
    VoltageSimResult beginRun();
    /** Close a run: fold its tally into the cumulative counters and
        fill the scalar result fields (before the closing snapshot). */
    void finishRun(VoltageSimResult &res, const RunAccum &acc,
                   uint64_t committed);

    /** The original per-cycle loop (controller in the loop). */
    void runClosedLoop(uint64_t maxCycles, uint64_t maxInsts,
                       VoltageSimResult &res, RunAccum &acc);
    /** Batched gather → currentBlock → pack → runBlock open loop. */
    void runOpenLoop(uint64_t maxCycles, uint64_t maxInsts,
                     VoltageSimResult &res, RunAccum &acc,
                     CapturedTrace *capture);
    /**
     * The open-loop block kernel shared by runOpenLoop and runReplay:
     * step the PDN over @p n cycles of @p amps (state space or
     * convolver), then account each cycle from its counts.
     */
    void runBlock(const double *amps, const obs::FpCounts *activity,
                  size_t n,
                  const obs::EmergencyTracker::ControlState &ctrl,
                  VoltageSimResult &res, RunAccum &acc);
    /** Per-cycle bookkeeping shared by every loop body. */
    void accountCycle(uint64_t cycle, double amps, double volts,
                      const obs::FpCounts &counts,
                      const obs::EmergencyTracker::ControlState &ctrl,
                      VoltageSimResult &res, RunAccum &acc);

    VoltageSimConfig cfg_;
    cpu::OoOCore core_;
    power::WattchModel power_;
    pdn::PdnSim pdn_;
    /** Convolution back-end; the partitioned convolver matches the
        naive reference Convolver to fp rounding at O(log taps)
        amortised per-cycle cost. */
    std::unique_ptr<pdn::PartitionedConvolver> conv_;
    // The threshold controller (paper Section 4.1, Fig. 11), engaged
    // when cfg.sensor is set: each cycle the sensor classifies the die
    // voltage and the actuator gates or phantom-fires the core from the
    // next cycle (one cycle of actuation latency on top of the sensor
    // delay — the threshold solver models the same loop).
    std::optional<ThresholdSensor> sensor_;
    Actuator actuator_;
    /** Last level the control logic acted on. */
    VoltageLevel lastLevel_ = VoltageLevel::Normal;
    uint64_t cycle_ = 0;
    double vNominal_;

    // Observability: registry over all components, per-run emergency
    // episode tracker.
    obs::Registry registry_;
    obs::EmergencyTracker tracker_;
    /** This cycle's activity (set by step(), consumed by
        runClosedLoop()'s event tracking). */
    const cpu::ActivityVector *lastAv_ = nullptr;

    /** Block scratch for the batched pipelines (sized once per run). */
    std::vector<cpu::ActivityVector> avBuf_;
    std::vector<double> ampsBuf_;
    std::vector<obs::FpCounts> countsBuf_;
    std::vector<double> voltsBuf_;

    // Cumulative (whole-sim-lifetime) counters bound into registry_;
    // run() reports per-run values via snapshot diffs.
    uint64_t emLow_ = 0;
    uint64_t emHigh_ = 0;
    double vMinSeen_;
    double vMaxSeen_;
};

} // namespace vguard::core

#endif // VGUARD_CORE_VOLTAGE_SIM_HPP
