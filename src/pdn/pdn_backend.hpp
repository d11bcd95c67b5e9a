/**
 * @file
 * Multi-scenario PDN stepping behind one interface.
 *
 * The paper's sweeps (Table 2 emergency counts vs impedance, Table 3
 * thresholds vs package/delay, Fig. 10 distributions) all push the
 * *same* captured current trace through many package configurations.
 * A PdnBackend steps K such scenarios — "lanes" — in lockstep:
 *
 *  - ScalarPdnBackend: one PdnSim per lane, stepped lane-major. This
 *    is the bit-exact golden reference; its per-lane output is by
 *    construction identical to PdnSim::stepMany / stepBlock2.
 *  - BatchedPdnBackend: structure-of-arrays state stepped cycle-major
 *    through simd::DoublePack, kPackWidth lanes per instruction. One
 *    block kernel serves stepShared and stepPerLane; they differ only
 *    in how each cycle's current pack is loaded (a broadcast of the
 *    shared draw, or the lanes' own draws). It follows stepBlock2's
 *    canonical FP summation order term for term (see
 *    linsys/matn.hpp), so its output is bit-identical to the scalar
 *    backend — not approximately equal; tests/test_backend_diff
 *    asserts byte equality across presets, lane counts and block
 *    sizes.
 *
 * Output layout is cycle-major: volts[k * lanes() + lane] is lane
 * `lane`'s die voltage on cycle k. Cycle-major keeps the batched
 * kernel's stores contiguous and lets sweep bookkeeping walk each
 * cycle's K voltages in one cache line.
 */

#ifndef VGUARD_PDN_PDN_BACKEND_HPP
#define VGUARD_PDN_PDN_BACKEND_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "pdn/package_model.hpp"

namespace vguard::pdn {

/** One scenario: a package design plus its regulator trim current. */
struct LaneConfig
{
    PackageParams package;
    double iTrim = 0.0;  ///< regulator trim current [A]
};

/** Which stepping engine to instantiate. */
enum class BackendKind
{
    Scalar,   ///< lane-major PdnSim loop (golden reference)
    Batched,  ///< cycle-major SoA + simd::DoublePack
};

/** K PDN scenarios stepped in lockstep over a shared clock. */
class PdnBackend
{
  public:
    virtual ~PdnBackend() = default;

    /** Number of scenario lanes. */
    virtual size_t lanes() const = 0;

    /** Regulator set point of @p lane (after trim). */
    virtual double vddSetPoint(size_t lane) const = 0;

    /** Reset every lane to its DC trim operating point. */
    virtual void reset() = 0;

    /**
     * Advance @p n cycles with all lanes drawing the same current
     * trace @p amps (the shared-trace sweep case). Writes cycle-major:
     * volts[k * lanes() + lane]. Callable repeatedly to stream a long
     * trace through in blocks; lane state carries across calls.
     *
     * The per-block trace spans (pdn.backend.step_shared) are emitted
     * by the core-layer call sites, not here: pdn sits below obs in the
     * layering (vlint layer-dag), so this library must not include the
     * tracer. The per-cycle stepCycle stays untraced either way; the
     * solver makes millions of those calls.
     */
    virtual void stepShared(const double *amps, size_t n,
                            double *volts) = 0;

    /**
     * Advance one cycle with per-lane currents (the closed-loop solver
     * case, where each lane's controller picks its own draw).
     * @p ampsPerLane and @p voltsPerLane have lanes() entries.
     * Deliberately untraced: this is the per-cycle hot path.
     */
    virtual void stepCycle(const double *ampsPerLane,
                           double *voltsPerLane) = 0;

    /**
     * Advance @p n cycles with a distinct current trace per lane (the
     * shared-rail multicore case: every lane is one chip's rail, fed
     * by that chip's summed per-core draw). Both @p amps and @p volts
     * are cycle-major: amps[k * lanes() + lane] is lane `lane`'s draw
     * on cycle k. Like stepShared, callable repeatedly in blocks with
     * lane state carrying across calls; bit-identical to n successive
     * stepCycle calls over the same currents. Traced at the core
     * call sites like stepShared (pdn.backend.step_per_lane).
     */
    virtual void stepPerLane(const double *amps, size_t n,
                             double *volts) = 0;
};

/**
 * Golden reference: one PdnSim per lane.
 *
 * Both factories validate every lane up front (VGUARD_CHECK): a
 * finite trim current and positive finite package reactances,
 * nominal voltage and clock. A degenerate lane would otherwise feed
 * NaNs or a singular design into the trim solve and poison every
 * lane-batched artifact downstream.
 */
std::unique_ptr<PdnBackend>
makeScalarBackend(const std::vector<LaneConfig> &lanes);

/** SoA lane-batched engine, bit-identical to the scalar backend. */
std::unique_ptr<PdnBackend>
makeBatchedBackend(const std::vector<LaneConfig> &lanes);

/** Factory over BackendKind. */
std::unique_ptr<PdnBackend>
makeBackend(BackendKind kind, const std::vector<LaneConfig> &lanes);

} // namespace vguard::pdn

#endif // VGUARD_PDN_PDN_BACKEND_HPP
