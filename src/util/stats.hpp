/**
 * @file
 * Streaming statistics: RunningStat (Welford mean), fixed-bin
 * Histogram and the per-rail emergency-band RailTally.
 *
 * These are used for the voltage-distribution characterisation (Fig. 10),
 * emergency-frequency accounting (Table 2) and general simulator stats.
 */

#ifndef VGUARD_UTIL_STATS_HPP
#define VGUARD_UTIL_STATS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vguard {

/** Single-pass running mean (Welford's update). */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    double mean() const { return n_ ? mean_ : 0.0; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
};

/**
 * Fixed-width-bin histogram over [lo, hi) with out-of-range samples
 * accumulated in underflow/overflow counters.
 */
class Histogram
{
  public:
    /**
     * @param lo   Lower edge of the first bin.
     * @param hi   Upper edge of the last bin; must exceed @p lo.
     * @param bins Number of bins; must be >= 1.
     */
    Histogram(double lo, double hi, size_t bins);

    /** Add one sample. */
    void add(double x);

    /**
     * Merge another histogram's counts into this one; both must have
     * identical lo/hi/bin geometry (fatal otherwise).
     */
    void merge(const Histogram &other);

    /** Number of in-range bins. */
    size_t bins() const { return counts_.size(); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    /** Raw count of bin @p i. */
    uint64_t count(size_t i) const { return counts_[i]; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    /** Total samples including out-of-range ones. */
    uint64_t total() const { return total_; }

    /** Center x-value of bin @p i. */
    double binCenter(size_t i) const;
    /** Fraction of all samples falling in bin @p i. */
    double fraction(size_t i) const;
    /**
     * Fraction of samples strictly below @p x, at one-bin resolution
     * and consistent with add()'s half-open [lo, hi) binning: the
     * query counts underflow plus every bin strictly below the bin
     * containing @p x (computed with the same index arithmetic as
     * add(), so exact bin boundaries never straddle). For x < lo the
     * result is 0; for x >= hi it is everything except overflow.
     */
    double fractionBelow(double x) const;

    /** Reset all counts. */
    void reset();

    /**
     * Render a compact multi-line ASCII bar chart (used by benches to
     * print Fig. 10-style distributions).
     */
    std::string ascii(size_t width = 50) const;

  private:
    double lo_, hi_, binWidth_;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

/**
 * Per-run emergency-band tally of one supply rail: the paper's
 * headline accounting (Table 2 counts, Fig. 10 distributions). Every
 * engine — VoltageSim, replaySweep, MulticoreSim — feeds its die
 * voltages through add(), so the band policy exists exactly once:
 * strictly below vNominal * (1 - band) counts low, else strictly above
 * vNominal * (1 + band) counts high.
 */
struct RailTally
{
    uint64_t cycles = 0;
    double minV = 0.0;
    double maxV = 0.0;
    uint64_t lowEmergencyCycles = 0;
    uint64_t highEmergencyCycles = 0;
    Histogram voltageHist{0.90, 1.10, 80};

    /**
     * Start an empty run of a rail at @p vNominal: zero counts, minV
     * and maxV at @p vNominal, the band bounds from @p band and an
     * empty histogram over [@p histLo, @p histHi) in @p histBins bins.
     */
    void reset(double vNominal, double band, double histLo,
               double histHi, size_t histBins)
    {
        cycles = lowEmergencyCycles = highEmergencyCycles = 0;
        minV = maxV = vNominal;
        voltageHist = Histogram(histLo, histHi, histBins);
        vLo_ = vNominal * (1.0 - band);
        vHi_ = vNominal * (1.0 + band);
    }

    /** Account one cycle at die voltage @p v. */
    // vlint: hot
    void add(double v)
    {
        minV = std::min(minV, v);
        maxV = std::max(maxV, v);
        voltageHist.add(v);
        if (v < vLo_)
            ++lowEmergencyCycles;
        else if (v > vHi_)
            ++highEmergencyCycles;
        ++cycles;
    }

    uint64_t emergencyCycles() const
    {
        return lowEmergencyCycles + highEmergencyCycles;
    }

  private:
    double vLo_ = 0.0;  ///< emergency band bounds (set by reset)
    double vHi_ = 0.0;
};

} // namespace vguard

#endif // VGUARD_UTIL_STATS_HPP
