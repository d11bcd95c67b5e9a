/**
 * @file
 * Multi-scenario trace replay: one captured current trace through K
 * package configurations in a single pass.
 *
 * The paper's impedance sweeps (Table 2's emergency counts, Fig. 10's
 * distributions) replay the same workload against many packages.
 * VoltageSim::runReplay handles one package per pass; replaySweep
 * pushes all K through the lane-batched pdn::PdnBackend, so K
 * scenarios cost roughly one trace walk, and tallies every lane with
 * the same RailTally as runReplay: for every lane, minV/maxV,
 * low/high emergency cycle counts and the voltage histogram are
 * bit-identical to a VoltageSim::runReplay of that lane's package
 * (asserted by tests/test_backend_diff.cpp).
 */

#ifndef VGUARD_CORE_REPLAY_SWEEP_HPP
#define VGUARD_CORE_REPLAY_SWEEP_HPP

#include <cstdint>
#include <vector>

#include "pdn/pdn_backend.hpp"
#include "util/stats.hpp"

namespace vguard::core {

/** Cycles per block that replaySweep and MulticoreSim stream through
    their backend (results do not depend on it). */
constexpr size_t kLaneBlockCycles = 256;

/** One sweep scenario: package + trim + bookkeeping bounds. */
struct SweepLane
{
    pdn::PackageParams package;
    double iTrim = 0.0;   ///< regulator trim current [A]
    double band = 0.05;   ///< emergency band (fraction of vNominal)
    double histLo = 0.90; ///< voltage histogram range
    double histHi = 1.10;
    size_t histBins = 80;

    /**
     * Fatal (VGUARD_CHECK) unless the lane is usable: a negative band
     * would invert the emergency window (every cycle an emergency); a
     * non-finite trim or an empty histogram range would reach the
     * solver/Histogram math unchecked.
     */
    void validate() const;

    /** Reset @p t to an empty tally of this lane's band and
        histogram. */
    void resetTally(RailTally &t) const;
};

/** Per-lane replay bookkeeping (the PDN-side subset of
    VoltageSimResult). */
using SweepLaneResult = RailTally;

/**
 * Replay the current trace @p amps[0..n) through every lane of a
 * freshly-trimmed lane-batched backend, streaming in blocks of
 * kLaneBlockCycles cycles. Every lane is validated first.
 */
std::vector<SweepLaneResult>
replaySweep(const double *amps, size_t n,
            const std::vector<SweepLane> &lanes);

} // namespace vguard::core

#endif // VGUARD_CORE_REPLAY_SWEEP_HPP
