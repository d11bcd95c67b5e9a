/**
 * @file
 * Cycle-by-cycle PDN simulator.
 *
 * Wraps the exactly-discretised package state space with mutable state
 * and the paper's regulator convention: "a capable voltage regulator can
 * maintain the ideal supply level of 1.0 V when the processor is at its
 * minimum power level" (Section 3.1). trimToCurrent() implements that by
 * raising the regulator set point to cancel the IR drop at a reference
 * current.
 */

#ifndef VGUARD_PDN_PDN_SIM_HPP
#define VGUARD_PDN_PDN_SIM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pdn/package_model.hpp"

namespace vguard::obs {
class Registry;  // bound in obs/stat_bindings.cpp (obs sits above pdn)
}

namespace vguard::pdn {

/** Stateful per-cycle simulator of a PackageModel. */
class PdnSim
{
  public:
    explicit PdnSim(const PackageModel &model);

    /**
     * Choose the regulator set point so the die sits exactly at
     * vNominal when drawing @p iRef amps DC, and initialise the state
     * to that operating point.
     */
    void trimToCurrent(double iRef);

    /**
     * Advance one CPU cycle with the processor drawing @p amps; returns
     * the die voltage during that cycle.
     */
    double step(double amps);

    /**
     * Advance @p n cycles from a flat current trace, writing the die
     * voltage of each cycle to @p volts. Bit-identical to n calls of
     * step() — same discretised arithmetic in the same order — but
     * allocation-free and without the per-call vector stores (the
     * batched back-end of trace replay; see core/trace_cache.hpp).
     */
    void stepMany(const double *amps, size_t n, double *volts);

    /** Run a whole current trace; returns the voltage trace. */
    std::vector<double> run(const std::vector<double> &amps);

    /** Reset state to the DC operating point of the last trim. */
    void reset();

    /** Regulator set point (after trim). */
    double vddSetPoint() const { return vdd_; }

    /** Nominal die voltage (band centre). */
    double vNominal() const { return model_.params().vNominal; }

    const PackageModel &model() const { return model_; }

    /**
     * Bind PDN telemetry into @p r: `<prefix>.steps`, the regulator
     * set point and the trim current. Must outlive @p r's snapshots.
     */
    void registerStats(obs::Registry &r,
                       const std::string &prefix = "pdn") const;

    /** Raw state vector (the batched backend seeds its lanes from it). */
    const std::vector<double> &state() const { return x_; }

  private:
    PackageModel model_;
    linsys::DiscreteStateSpaceN dss_;
    std::vector<double> x_;      ///< [v_bulk, i_L, v_dcap]
    std::vector<double> xTrim_;  ///< DC state at the trim point
    /** Reused [Vdd, I] input vector: step() must not allocate. */
    std::vector<double> u_{0.0, 0.0};
    double vdd_;                 ///< regulator set point
    double iTrim_ = 0.0;
    uint64_t steps_ = 0;
};

} // namespace vguard::pdn

#endif // VGUARD_PDN_PDN_SIM_HPP
