/**
 * @file
 * Threshold voltage sensor (paper Section 4).
 *
 * The sensor does *not* digitise the voltage — it reports one of three
 * levels (Low / Normal / High) by comparing a delayed, noisy reading
 * against two thresholds, which is what makes it implementable with
 * bandgap references or inverter-chain detectors in 1-2 cycles
 * (Section 4.2).
 *
 * Delay is modeled as a ring buffer of past readings; error as bounded
 * white noise, uniform in [-noiseMagnitude, +noiseMagnitude], added to
 * the reading. That is the Section 4.5 error model: thresholds are
 * compensated "by the potential error" ("correspondingly lowering and
 * raising the threshold"), which needs a hard bound on the error. The
 * compensation is applied by the threshold solver, not here.
 */

#ifndef VGUARD_CORE_SENSOR_HPP
#define VGUARD_CORE_SENSOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vguard::core {

/** Three-level sensor output. */
enum class VoltageLevel : uint8_t { Low, Normal, High };

/** Sensor parameters. */
struct SensorConfig
{
    double vLow = 0.0;          ///< low threshold [V]
    double vHigh = 1e9;         ///< high threshold [V]
    unsigned delayCycles = 1;   ///< reading age (0..6 in the paper)
    /** Half-width of the uniform reading error [V]. */
    double noiseMagnitude = 0.0;
    uint64_t seed = 0x5e11507;  ///< noise stream seed
    double vNominal = 1.0;      ///< initial delay-line fill [V]
};

/** The threshold sensor. */
class ThresholdSensor
{
  public:
    explicit ThresholdSensor(const SensorConfig &cfg);

    /**
     * Push this cycle's true die voltage; returns the level of the
     * delayed, noisy reading the control logic sees.
     */
    VoltageLevel observe(double vNow);

    /** The raw (noisy, delayed) reading behind the last observe(). */
    double lastReading() const { return lastReading_; }

    /** Reset history (refills the delay line with nominal voltage). */
    void reset(double vFill);

    const SensorConfig &config() const { return cfg_; }

    /**
     * Bind sensor telemetry into @p r: observation/level counters and
     * the last raw reading under `<prefix>.`.
     */
    void registerStats(obs::Registry &r,
                       const std::string &prefix) const;

  private:
    SensorConfig cfg_;
    std::vector<double> history_;  ///< delay line (delay + 1 readings)
    size_t head_ = 0;
    Rng rng_;
    double lastReading_ = 0.0;
    uint64_t observes_ = 0;
    uint64_t lowReadings_ = 0;
    uint64_t highReadings_ = 0;
};

} // namespace vguard::core

#endif // VGUARD_CORE_SENSOR_HPP
