/**
 * @file
 * Exact worst-case analysis for discrete LTI systems with bounded input.
 *
 * For an output y(t) = Σ_k h[k]·u(t−k) with u constrained to
 * [lo, hi], the extremal outputs are achieved by *bang-bang* inputs that
 * match the sign pattern of the impulse response (an ℓ¹-norm argument).
 * The paper reaches the same worst case empirically via a resonant
 * square wave (Section 2.3, Fig. 6); the bang-bang bound is exact and
 * the resonant square wave approaches it from below.
 *
 * vguard uses this to (a) calibrate the target impedance (Table 2's
 * "100%"), (b) build the theoretical worst-case waveform of Fig. 9, and
 * (c) solve for safe controller thresholds (Table 3). The square-wave
 * and pulse builders below are the test inputs of those studies and of
 * Figs. 3-6.
 */

#ifndef VGUARD_LINSYS_WORST_CASE_HPP
#define VGUARD_LINSYS_WORST_CASE_HPP

#include <cstddef>
#include <vector>

namespace vguard::linsys {

/** Result of a bang-bang extremal analysis. */
struct WorstCase
{
    double minOutput = 0.0;  ///< most negative achievable steady output
    double maxOutput = 0.0;  ///< most positive achievable steady output
    /**
     * Input sequence (length = impulse length) driving the output to
     * minOutput at its final sample.
     */
    std::vector<double> minInput;
    /** Input sequence driving the output to maxOutput. */
    std::vector<double> maxInput;
};

/**
 * Compute the exact extremal outputs of y = h * u over all inputs
 * u(t) ∈ [lo, hi].
 *
 * @param impulse Impulse response h[0..K).
 * @param lo      Lower input bound.
 * @param hi      Upper input bound; must be >= lo.
 */
WorstCase bangBangWorstCase(const std::vector<double> &impulse, double lo,
                            double hi);

/**
 * Build the resonant square-wave input of the paper's stressmark
 * discussion: alternate @p hi for @p halfPeriod samples and @p lo for
 * @p halfPeriod samples, repeated to @p len samples.
 */
std::vector<double> resonantSquareWave(size_t len, size_t halfPeriod,
                                       double lo, double hi);

/**
 * Rectangular pulse: baseline with [start, start+width) raised to
 * @p high. Used for the narrow/wide spike studies of Figs. 3-4.
 */
std::vector<double> pulseSignal(size_t len, double baseline, double high,
                                size_t start, size_t width);

/**
 * Periodic train of rectangular pulses (Fig. 6's resonant stress
 * pattern): pulses of @p width samples every @p period samples starting
 * at @p start.
 */
std::vector<double> pulseTrainSignal(size_t len, double baseline,
                                     double high, size_t start,
                                     size_t width, size_t period);

} // namespace vguard::linsys

#endif // VGUARD_LINSYS_WORST_CASE_HPP
