/**
 * @file
 * Zero-latency uniformly-partitioned overlap-save convolver.
 *
 * The naive streaming Convolver (impulse.hpp) costs O(taps) per cycle,
 * which makes convolution-mode runs on slow-settling packages (kernels
 * of thousands of taps) 100-1000x slower than state-space stepping.
 * This class computes the same v(t) = vdd + Σ_k h[k]·I(t−k) with
 * Gardner-style partitioned convolution:
 *
 *  - the kernel head h[0..B) is applied as a direct dot product every
 *    cycle, so the output has zero added latency;
 *  - the tail h[B..K) is split into uniform partitions of B taps, each
 *    applied in the frequency domain: once per B cycles the last 2B
 *    inputs are FFT'd into a frequency-domain delay line, every
 *    partition is multiply-accumulated against its precomputed kernel
 *    spectrum, and one inverse FFT yields the tail contribution for the
 *    next B outputs (overlap-save, so the result is exact to fp
 *    rounding — no windowing approximation).
 *
 * Per-cycle cost is O(B + (K/B)·log B) amortised instead of O(K);
 * with the default B = 128 a 4096-tap kernel runs more than an order
 * of magnitude faster than the naive convolver (see
 * bench/bench_convolver.cpp, BENCH_convolver.json).
 *
 * Equivalence with the naive Convolver is pinned tap-for-tap in
 * tests/test_pdn.cpp and over a stressmark current trace in
 * tests/test_extensions.cpp (max abs deviation <= 1e-12 V).
 */

#ifndef VGUARD_PDN_PARTITIONED_CONVOLVER_HPP
#define VGUARD_PDN_PARTITIONED_CONVOLVER_HPP

#include <complex>
#include <cstddef>
#include <vector>

#include "linsys/fft.hpp"

namespace vguard::pdn {

/** Streaming partitioned convolution of a current trace with h[k]. */
class PartitionedConvolver
{
  public:
    /**
     * @param impulse   Kernel h (from impulseResponse()).
     * @param vdd       Regulator set point added to the deviation.
     * @param iBias     Current history is pre-filled with this value so
     *                  the convolver starts at the corresponding DC
     *                  point (same convention as Convolver).
     * @param blockSize Partition size B; power of two. Smaller blocks
     *                  cost more FFTs, larger blocks more direct-head
     *                  work; 128 is a good default for kernels in the
     *                  256-8192 tap range.
     */
    explicit PartitionedConvolver(std::vector<double> impulse,
                                  double vdd, double iBias = 0.0,
                                  size_t blockSize = 128);

    /** Push this cycle's current; returns this cycle's die voltage. */
    double step(double amps);

    /** Re-fill history with the bias current. */
    void reset();

    size_t taps() const { return taps_; }
    size_t partitions() const { return spectra_.size(); }
    double vdd() const { return vdd_; }

  private:
    /** Runs once per completed frame: pushes the frame's spectrum and
        computes the tail contribution for the next B outputs. */
    void frameBoundary();

    /** MAC all partitions against the delay line into tail_. */
    void accumulateTail();

    /** Prime history and the delay line with the DC bias. */
    void primeWithBias();

    size_t taps_ = 0;    ///< kernel length K
    size_t block_ = 0;   ///< partition size B
    size_t fftN_ = 0;    ///< FFT size (2B)
    double vdd_;
    double iBias_;

    linsys::FftPlan plan_;

    std::vector<double> head_;  ///< h[0..min(K,B)) for the direct part
    /** Kernel partition spectra H_p = FFT(h[B+pB .. B+(p+1)B), 0-pad). */
    std::vector<std::vector<std::complex<double>>> spectra_;

    /** Input buffer: previous frame at [0,B), current frame at [B,2B). */
    std::vector<double> in_;
    /** Frequency-domain delay line: fdl_[(head+p) % P] is the spectrum
        of the two frames that partition p convolves against. */
    std::vector<std::vector<std::complex<double>>> fdl_;
    size_t fdlHead_ = 0;

    std::vector<double> tail_;  ///< tail contribution for this frame
    size_t j_ = 0;              ///< position inside the current frame

    std::vector<std::complex<double>> scratch_;  ///< FFT work buffer
    std::vector<std::complex<double>> acc_;      ///< spectrum accumulator
};

} // namespace vguard::pdn

#endif // VGUARD_PDN_PARTITIONED_CONVOLVER_HPP
