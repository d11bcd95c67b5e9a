#include "pdn/pdn_backend.hpp"

#include <cmath>

#include "pdn/pdn_sim.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"

namespace vguard::pdn {

namespace {

/** MatN caps runtime dimension at 8; kernels size stack arrays to it. */
constexpr unsigned kMaxStates = 8;

/**
 * Entry-point validation shared by both factories. A non-finite trim
 * current propagates NaN through the DC trim solve; non-positive
 * reactances make the package design singular. Either way the lane
 * produces garbage voltages that the downstream bookkeeping would
 * count as (or hide) emergencies, so reject at construction.
 */
void
validateLanes(const std::vector<LaneConfig> &lanes)
{
    VGUARD_CHECK(!lanes.empty());
    for (const LaneConfig &lc : lanes) {
        VGUARD_CHECK(std::isfinite(lc.iTrim));
        const PackageParams &p = lc.package;
        VGUARD_CHECK(std::isfinite(p.lPkg) && p.lPkg > 0.0);
        VGUARD_CHECK(std::isfinite(p.cDie) && p.cDie > 0.0);
        VGUARD_CHECK(std::isfinite(p.cBulk) && p.cBulk > 0.0);
        VGUARD_CHECK(std::isfinite(p.vNominal) && p.vNominal > 0.0);
        VGUARD_CHECK(std::isfinite(p.clockHz) && p.clockHz > 0.0);
        VGUARD_CHECK(std::isfinite(p.rVrm) && p.rVrm >= 0.0);
        VGUARD_CHECK(std::isfinite(p.rPkg) && p.rPkg >= 0.0);
        VGUARD_CHECK(std::isfinite(p.rEsr) && p.rEsr >= 0.0);
    }
}

// ------------------------------------------------------------- scalar

/**
 * Golden reference: one PdnSim per lane, stepped lane-major. Every
 * voltage it emits comes out of PdnSim::stepMany / step, i.e. the
 * exact arithmetic the rest of the project already trusts.
 */
class ScalarPdnBackend final : public PdnBackend
{
  public:
    explicit ScalarPdnBackend(const std::vector<LaneConfig> &lanes)
    {
        VGUARD_CHECK(!lanes.empty());
        sims_.reserve(lanes.size());
        for (const LaneConfig &lc : lanes) {
            sims_.emplace_back(PackageModel(lc.package));
            sims_.back().trimToCurrent(lc.iTrim);
        }
    }

    size_t lanes() const override { return sims_.size(); }

    double vddSetPoint(size_t lane) const override
    {
        return sims_[lane].vddSetPoint();
    }

    void reset() override
    {
        for (PdnSim &sim : sims_)
            sim.reset();
    }

    void stepShared(const double *amps, size_t n, double *volts) override
    {
        for (size_t lane = 0; lane < sims_.size(); ++lane)
            stepLane(lane, amps, n, volts);
    }

    void stepCycle(const double *ampsPerLane,
                   double *voltsPerLane) override
    {
        for (size_t lane = 0; lane < sims_.size(); ++lane)
            voltsPerLane[lane] = sims_[lane].step(ampsPerLane[lane]);
    }

    void stepPerLane(const double *amps, size_t n, double *volts) override
    {
        const size_t k = sims_.size();
        if (colBuf_.size() < n)
            colBuf_.resize(n);
        // Gather each lane's current column so the whole block still
        // goes through PdnSim::stepMany — the exact arithmetic the
        // single-rail replay uses.
        for (size_t lane = 0; lane < k; ++lane) {
            for (size_t cyc = 0; cyc < n; ++cyc)
                colBuf_[cyc] = amps[cyc * k + lane];
            stepLane(lane, colBuf_.data(), n, volts);
        }
    }

  private:
    /**
     * Step @p lane through @p n cycles of its current column @p amps
     * with PdnSim::stepMany and scatter the voltages into the
     * cycle-major @p volts.
     */
    void stepLane(size_t lane, const double *amps, size_t n,
                  double *volts)
    {
        const size_t k = sims_.size();
        if (rowBuf_.size() < n)
            rowBuf_.resize(n);
        sims_[lane].stepMany(amps, n, rowBuf_.data());
        for (size_t cyc = 0; cyc < n; ++cyc)
            volts[cyc * k + lane] = rowBuf_[cyc];
    }

    std::vector<PdnSim> sims_;
    std::vector<double> rowBuf_;  ///< one lane's voltage row
    std::vector<double> colBuf_;  ///< one lane's current column
};

// ------------------------------------------------------------ batched

/**
 * Structure-of-arrays engine: lane `l`'s copy of coefficient `q` lives
 * at q[... * stride_ + l], with stride_ = lanes rounded up to
 * simd::kPackWidth so every pack load is in-bounds. Padding lanes
 * clone the last real lane's coefficients and state — they compute
 * real (discarded) values, never NaNs that could trap.
 *
 * The kernel follows DiscreteStateSpaceN::stepBlock2's canonical
 * summation order term for term (state-major, then inputs in index
 * order, accumulators from +0.0), with DoublePack's elementwise IEEE
 * add/mul standing in for the scalar ops — which makes every lane
 * bit-identical to a scalar PdnSim stepping the same scenario.
 */
class BatchedPdnBackend final : public PdnBackend
{
  public:
    explicit BatchedPdnBackend(const std::vector<LaneConfig> &lanes)
        : k_(lanes.size())
    {
        VGUARD_CHECK(!lanes.empty());
        stride_ = ((k_ + simd::kPackWidth - 1) / simd::kPackWidth) *
                  simd::kPackWidth;

        {
            PackageModel first(lanes[0].package);
            ns_ = first.discrete().states();
        }
        VGUARD_CHECK(ns_ >= 1 && ns_ <= kMaxStates);

        ad_.assign(size_t{ns_} * ns_ * stride_, 0.0);
        bd0_.assign(size_t{ns_} * stride_, 0.0);
        bd1_.assign(size_t{ns_} * stride_, 0.0);
        c_.assign(size_t{ns_} * stride_, 0.0);
        d0_.assign(stride_, 0.0);
        d1_.assign(stride_, 0.0);
        vdd_.assign(stride_, 0.0);
        x_.assign(size_t{ns_} * stride_, 0.0);
        xTrim_.assign(size_t{ns_} * stride_, 0.0);
        ampsPad_.assign(stride_, 0.0);
        voltsPad_.assign(stride_, 0.0);

        for (size_t lane = 0; lane < k_; ++lane)
            fillLane(lane, lanes[lane]);
        // Padding lanes replicate the last real scenario.
        for (size_t lane = k_; lane < stride_; ++lane)
            copyLane(lane, k_ - 1);

        x_ = xTrim_;
    }

    size_t lanes() const override { return k_; }

    double vddSetPoint(size_t lane) const override { return vdd_[lane]; }

    void reset() override { x_ = xTrim_; }

    // vlint: hot
    void stepShared(const double *amps, size_t n, double *volts) override
    {
        if (ns_ == 3)
            blockKernel<3, true>(amps, n, volts);
        else
            blockKernel<0, true>(amps, n, volts);
    }

    void stepCycle(const double *ampsPerLane,
                   double *voltsPerLane) override
    {
        for (size_t lane = 0; lane < k_; ++lane)
            ampsPad_[lane] = ampsPerLane[lane];
        for (size_t lane = k_; lane < stride_; ++lane)
            ampsPad_[lane] = ampsPerLane[k_ - 1];
        if (ns_ == 3)
            cycleKernel<3>();
        else
            cycleKernel<0>();
        for (size_t lane = 0; lane < k_; ++lane)
            voltsPerLane[lane] = voltsPad_[lane];
    }

    // vlint: hot
    void stepPerLane(const double *amps, size_t n, double *volts) override
    {
        // Full packs load straight from the caller's cycle-major
        // buffer (DoublePack::load is unaligned on every target), so
        // only the tail pack — the one containing padding lanes —
        // needs a repack. Padding lanes clone the last real lane's
        // draw (as in stepCycle) so they keep computing real,
        // discarded values. Against a full-block repack this saves an
        // n*stride_ copy per block, which would dominate the many-core
        // per-lane path (see bench_simloop chipBatched).
        if (stride_ != k_) {
            const size_t base = stride_ - simd::kPackWidth;
            const size_t live = k_ - base;
            if (tailBlk_.size() < n * simd::kPackWidth)
                // vlint: allow(alloc-hot) grow-once scratch, first block only
                tailBlk_.resize(n * simd::kPackWidth);
            for (size_t cyc = 0; cyc < n; ++cyc) {
                double *dst = tailBlk_.data() + cyc * simd::kPackWidth;
                const double *src = amps + cyc * k_;
                for (size_t lane = 0; lane < live; ++lane)
                    dst[lane] = src[base + lane];
                for (size_t lane = live; lane < simd::kPackWidth; ++lane)
                    dst[lane] = src[k_ - 1];
            }
        }
        if (ns_ == 3)
            blockKernel<3, false>(amps, n, volts);
        else
            blockKernel<0, false>(amps, n, volts);
    }

  private:
    void fillLane(size_t lane, const LaneConfig &lc)
    {
        PackageModel model(lc.package);
        PdnSim sim(model);
        sim.trimToCurrent(lc.iTrim);

        const linsys::DiscreteStateSpaceN dss = model.discrete();
        VGUARD_CHECK(dss.states() == ns_);
        VGUARD_CHECK(dss.inputs() == 2);

        for (unsigned i = 0; i < ns_; ++i) {
            for (unsigned j = 0; j < ns_; ++j)
                ad_[(size_t{i} * ns_ + j) * stride_ + lane] =
                    dss.ad().at(i, j);
            bd0_[size_t{i} * stride_ + lane] = dss.bd()[i * 2 + 0];
            bd1_[size_t{i} * stride_ + lane] = dss.bd()[i * 2 + 1];
            c_[size_t{i} * stride_ + lane] = dss.c()[i];
            xTrim_[size_t{i} * stride_ + lane] = sim.state()[i];
        }
        d0_[lane] = dss.d()[0];
        d1_[lane] = dss.d()[1];
        vdd_[lane] = sim.vddSetPoint();
    }

    void copyLane(size_t dst, size_t src)
    {
        for (unsigned i = 0; i < ns_; ++i) {
            for (unsigned j = 0; j < ns_; ++j) {
                const size_t row = (size_t{i} * ns_ + j) * stride_;
                ad_[row + dst] = ad_[row + src];
            }
            bd0_[size_t{i} * stride_ + dst] = bd0_[size_t{i} * stride_ + src];
            bd1_[size_t{i} * stride_ + dst] = bd1_[size_t{i} * stride_ + src];
            c_[size_t{i} * stride_ + dst] = c_[size_t{i} * stride_ + src];
            xTrim_[size_t{i} * stride_ + dst] =
                xTrim_[size_t{i} * stride_ + src];
        }
        d0_[dst] = d0_[src];
        d1_[dst] = d1_[src];
        vdd_[dst] = vdd_[src];
    }

    /**
     * Block kernel behind both stepShared and stepPerLane, chunk-outer
     * / cycle-inner so each chunk's coefficient and state packs stay in
     * registers across the whole block. NS_HINT = compile-time state
     * count (3 is the PDN fast path); NS_HINT = 0 falls back to the
     * runtime dimension. SHARED picks the current pack u1: a broadcast
     * of the shared draw amps[cyc], or a per-lane pack load — straight
     * from the caller's cycle-major buffer for full packs, from the
     * padded tailBlk_ for the one pack that straddles k_. Everything
     * else (loop structure, term order) is common, so the bit-identity
     * argument holds for both.
     */
    template <unsigned NS_HINT, bool SHARED>
    // vlint: hot
    void blockKernel(const double *amps, size_t n, double *volts)
    {
        using simd::DoublePack;
        const unsigned ns = NS_HINT ? NS_HINT : ns_;
        for (size_t base = 0; base < stride_; base += simd::kPackWidth) {
            DoublePack A[kMaxStates * kMaxStates];
            DoublePack B0[kMaxStates], B1[kMaxStates], C[kMaxStates];
            DoublePack x[kMaxStates], nx[kMaxStates];
            for (unsigned i = 0; i < ns; ++i) {
                C[i] = DoublePack::load(&c_[size_t{i} * stride_ + base]);
                B0[i] = DoublePack::load(&bd0_[size_t{i} * stride_ + base]);
                B1[i] = DoublePack::load(&bd1_[size_t{i} * stride_ + base]);
                for (unsigned j = 0; j < ns; ++j)
                    A[i * ns + j] = DoublePack::load(
                        &ad_[(size_t{i} * ns + j) * stride_ + base]);
                x[i] = DoublePack::load(&x_[size_t{i} * stride_ + base]);
            }
            const DoublePack d0 = DoublePack::load(&d0_[base]);
            const DoublePack d1 = DoublePack::load(&d1_[base]);
            const DoublePack u0 = DoublePack::load(&vdd_[base]);

            const bool full = base + simd::kPackWidth <= k_;
            const size_t live = full ? simd::kPackWidth : k_ - base;
            double tail[simd::kPackWidth];

            // Per-lane input addressing: (pointer, stride) selected per
            // pack keeps the cycle loop branch-free.
            const double *uSrc = full ? amps + base : tailBlk_.data();
            const size_t uStride = full ? k_ : simd::kPackWidth;

            for (size_t cyc = 0; cyc < n; ++cyc) {
                const DoublePack u1 =
                    SHARED ? DoublePack::broadcast(amps[cyc])
                           : DoublePack::load(uSrc + cyc * uStride);

                DoublePack out = DoublePack::zero();
                for (unsigned i = 0; i < ns; ++i)
                    out = out + C[i] * x[i];
                out = out + d0 * u0;
                out = out + d1 * u1;

                double *dst = volts + cyc * k_ + base;
                if (full) {
                    out.store(dst);
                } else {
                    out.store(tail);
                    for (size_t l = 0; l < live; ++l)
                        dst[l] = tail[l];
                }

                for (unsigned i = 0; i < ns; ++i) {
                    DoublePack acc = DoublePack::zero();
                    for (unsigned j = 0; j < ns; ++j)
                        acc = acc + A[i * ns + j] * x[j];
                    acc = acc + B0[i] * u0;
                    acc = acc + B1[i] * u1;
                    nx[i] = acc;
                }
                for (unsigned i = 0; i < ns; ++i)
                    x[i] = nx[i];
            }

            for (unsigned i = 0; i < ns; ++i)
                x[i].store(&x_[size_t{i} * stride_ + base]);
        }
    }

    /** One cycle with per-lane currents from ampsPad_ into voltsPad_. */
    template <unsigned NS_HINT>
    // vlint: hot
    void cycleKernel()
    {
        using simd::DoublePack;
        const unsigned ns = NS_HINT ? NS_HINT : ns_;
        for (size_t base = 0; base < stride_; base += simd::kPackWidth) {
            DoublePack x[kMaxStates], nx[kMaxStates];
            for (unsigned i = 0; i < ns; ++i)
                x[i] = DoublePack::load(&x_[size_t{i} * stride_ + base]);
            const DoublePack u0 = DoublePack::load(&vdd_[base]);
            const DoublePack u1 = DoublePack::load(&ampsPad_[base]);

            DoublePack out = DoublePack::zero();
            for (unsigned i = 0; i < ns; ++i)
                out = out +
                      DoublePack::load(&c_[size_t{i} * stride_ + base]) *
                          x[i];
            out = out + DoublePack::load(&d0_[base]) * u0;
            out = out + DoublePack::load(&d1_[base]) * u1;
            out.store(&voltsPad_[base]);

            for (unsigned i = 0; i < ns; ++i) {
                DoublePack acc = DoublePack::zero();
                for (unsigned j = 0; j < ns; ++j)
                    acc = acc +
                          DoublePack::load(
                              &ad_[(size_t{i} * ns + j) * stride_ + base]) *
                              x[j];
                acc = acc + DoublePack::load(&bd0_[size_t{i} * stride_ +
                                                  base]) *
                                u0;
                acc = acc + DoublePack::load(&bd1_[size_t{i} * stride_ +
                                                  base]) *
                                u1;
                nx[i] = acc;
            }
            for (unsigned i = 0; i < ns; ++i)
                nx[i].store(&x_[size_t{i} * stride_ + base]);
        }
    }

    size_t k_;          ///< real scenario lanes
    size_t stride_ = 0; ///< k_ rounded up to simd::kPackWidth
    unsigned ns_ = 0;   ///< state count (3 for the PDN model)

    // SoA coefficient arrays, lane-fastest: q[slot * stride_ + lane].
    std::vector<double> ad_;   ///< (i*ns+j) slots
    std::vector<double> bd0_;  ///< Bd column for u0 = Vdd
    std::vector<double> bd1_;  ///< Bd column for u1 = I_cpu
    std::vector<double> c_;
    std::vector<double> d0_, d1_;
    std::vector<double> vdd_;  ///< per-lane regulator set point

    std::vector<double> x_;      ///< live state, i slots
    std::vector<double> xTrim_;  ///< DC trim state

    std::vector<double> ampsPad_;   ///< stepCycle input scratch
    std::vector<double> voltsPad_;  ///< stepCycle output scratch
    std::vector<double> tailBlk_;   ///< stepPerLane tail-pack scratch
};

} // namespace

std::unique_ptr<PdnBackend>
makeScalarBackend(const std::vector<LaneConfig> &lanes)
{
    validateLanes(lanes);
    return std::make_unique<ScalarPdnBackend>(lanes);
}

std::unique_ptr<PdnBackend>
makeBatchedBackend(const std::vector<LaneConfig> &lanes)
{
    validateLanes(lanes);
    return std::make_unique<BatchedPdnBackend>(lanes);
}

std::unique_ptr<PdnBackend>
makeBackend(BackendKind kind, const std::vector<LaneConfig> &lanes)
{
    return kind == BackendKind::Scalar ? makeScalarBackend(lanes)
                                       : makeBatchedBackend(lanes);
}

} // namespace vguard::pdn
