/**
 * @file
 * Unit and property tests for src/linsys: MatN algebra and matrix
 * exponential at N = 2, ZOH discretisation of second-order systems,
 * signal builders and the bang-bang worst-case analysis.
 *
 * The second-order cases (suites Mat2, StateSpace and ZohSweep) run
 * on MatN / DiscreteStateSpaceN at N = 2, where closed forms exist.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linsys/fft.hpp"
#include "linsys/matn.hpp"
#include "linsys/worst_case.hpp"
#include "util/rng.hpp"

namespace {

using namespace vguard::linsys;

/** Row-major 2x2 MatN. */
MatN
mat2(double a, double b, double c, double d)
{
    MatN m(2);
    m.at(0, 0) = a;
    m.at(0, 1) = b;
    m.at(1, 0) = c;
    m.at(1, 1) = d;
    return m;
}

// Closed-form 2x2 oracles: trace, determinant and the spectral radius
// from the characteristic polynomial (MatN only estimates the latter).
double
trace2(const MatN &m)
{
    return m.at(0, 0) + m.at(1, 1);
}

double
det2(const MatN &m)
{
    return m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0);
}

double
spectralRadius2(const MatN &m)
{
    // Eigenvalues of a 2x2: (tr ± sqrt(tr^2 - 4 det)) / 2.
    const double tr = trace2(m);
    const double det = det2(m);
    const double disc = tr * tr - 4.0 * det;
    if (disc >= 0.0) {
        const double r = std::sqrt(disc);
        return std::max(std::fabs((tr + r) * 0.5),
                        std::fabs((tr - r) * 0.5));
    }
    // Complex pair: |lambda| = sqrt(det).
    return std::sqrt(std::fabs(det));
}

TEST(Mat2, Arithmetic)
{
    const MatN a = mat2(1, 2, 3, 4);
    const MatN b = mat2(5, 6, 7, 8);
    const MatN sum = a + b;
    EXPECT_DOUBLE_EQ(sum.at(0, 0), 6);
    EXPECT_DOUBLE_EQ(sum.at(1, 1), 12);
    const MatN prod = a * b;
    EXPECT_DOUBLE_EQ(prod.at(0, 0), 19);
    EXPECT_DOUBLE_EQ(prod.at(0, 1), 22);
    EXPECT_DOUBLE_EQ(prod.at(1, 0), 43);
    EXPECT_DOUBLE_EQ(prod.at(1, 1), 50);
}

TEST(Mat2, VectorProduct)
{
    const MatN a = mat2(1, 2, 3, 4);
    const std::vector<double> v = a.apply({1.0, -1.0});
    ASSERT_EQ(v.size(), 2u);
    EXPECT_DOUBLE_EQ(v[0], -1.0);
    EXPECT_DOUBLE_EQ(v[1], -1.0);
}

TEST(Mat2, TraceDet)
{
    // Pins the closed-form oracles the spectral-radius cases rely on.
    const MatN a = mat2(2, 1, 1, 3);
    EXPECT_DOUBLE_EQ(trace2(a), 5.0);
    EXPECT_DOUBLE_EQ(det2(a), 5.0);
}

TEST(Mat2, InverseRoundTrip)
{
    const MatN a = mat2(2, 1, 1, 3);
    const MatN id = a * a.inverse();
    EXPECT_NEAR(id.at(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(id.at(0, 1), 0.0, 1e-14);
    EXPECT_NEAR(id.at(1, 0), 0.0, 1e-14);
    EXPECT_NEAR(id.at(1, 1), 1.0, 1e-14);
}

TEST(Mat2, ExpmOfZeroIsIdentity)
{
    const MatN e = expm(MatN(2));
    EXPECT_NEAR(e.at(0, 0), 1.0, 1e-15);
    EXPECT_NEAR(e.at(0, 1), 0.0, 1e-15);
    EXPECT_NEAR(e.at(1, 1), 1.0, 1e-15);
}

TEST(Mat2, ExpmDiagonal)
{
    const MatN e = expm(mat2(1.0, 0.0, 0.0, -2.0));
    EXPECT_NEAR(e.at(0, 0), std::exp(1.0), 1e-12);
    EXPECT_NEAR(e.at(1, 1), std::exp(-2.0), 1e-12);
    EXPECT_NEAR(e.at(0, 1), 0.0, 1e-13);
    EXPECT_NEAR(e.at(1, 0), 0.0, 1e-13);
}

TEST(Mat2, ExpmRotation)
{
    // exp([[0,-w],[w,0]] t) is a rotation by w*t.
    const double w = 3.0;
    const MatN e = expm(mat2(0.0, -w, w, 0.0));
    EXPECT_NEAR(e.at(0, 0), std::cos(w), 1e-12);
    EXPECT_NEAR(e.at(0, 1), -std::sin(w), 1e-12);
    EXPECT_NEAR(e.at(1, 0), std::sin(w), 1e-12);
    EXPECT_NEAR(e.at(1, 1), std::cos(w), 1e-12);
}

TEST(Mat2, ExpmLargeArgumentScales)
{
    const MatN e = expm(mat2(-100.0, 0.0, 0.0, -100.0));
    EXPECT_NEAR(e.at(0, 0), std::exp(-100.0), 1e-50);
}

TEST(Mat2, ExpmSumProperty)
{
    // For commuting matrices (same matrix halves): exp(M) =
    // exp(M/2)^2.
    const MatN m = mat2(-0.3, 1.2, -0.7, 0.1);
    const MatN whole = expm(m);
    const MatN half = expm(m * 0.5);
    const MatN sq = half * half;
    for (unsigned i = 0; i < 2; ++i)
        for (unsigned j = 0; j < 2; ++j)
            EXPECT_NEAR(whole.at(i, j), sq.at(i, j), 1e-12);
}

/** Two-state, two-input, one-output system; @p b is row-major
    N x M like StateSpaceN::b. */
StateSpaceN
system2(const MatN &a, std::vector<double> b, std::vector<double> c)
{
    StateSpaceN ss(2, 2);
    ss.a = a;
    ss.b = std::move(b);
    ss.c = std::move(c);
    return ss;
}

// A simple scalar-like test system: two decoupled first-order lags.
StateSpaceN
decoupledLags(double tau1, double tau2)
{
    return system2(mat2(-1.0 / tau1, 0.0, 0.0, -1.0 / tau2),
                   {1.0 / tau1, 0.0, 0.0, 1.0 / tau2}, {1.0, 1.0});
}

TEST(StateSpace, ZohMatchesAnalyticFirstOrder)
{
    // Single lag x' = (-x + u)/tau discretised with ZOH:
    // x[k+1] = a x[k] + (1-a) u with a = exp(-dt/tau).
    const double tau = 2.0, dt = 0.1;
    const auto dss = DiscreteStateSpaceN::zoh(decoupledLags(tau, 1.0), dt);
    const double a = std::exp(-dt / tau);
    EXPECT_NEAR(dss.ad().at(0, 0), a, 1e-12);
    EXPECT_NEAR(dss.bd()[0], 1.0 - a, 1e-12);
}

TEST(StateSpace, StepConvergesToDcGain)
{
    const auto dss =
        DiscreteStateSpaceN::zoh(decoupledLags(1.0, 3.0), 0.05);
    std::vector<double> x{0.0, 0.0};
    const std::vector<double> u{2.0, -1.0};
    for (int i = 0; i < 4000; ++i)
        dss.next(x, u);
    // DC: each lag settles to its input; y = x1 + x2 = 2 - 1 = 1.
    EXPECT_NEAR(dss.output(x, u), 1.0, 1e-9);
}

TEST(StateSpace, SimulateProducesPerStepOutputs)
{
    // stepBlock2 samples the output before advancing, per step.
    const auto dss =
        DiscreteStateSpaceN::zoh(decoupledLags(1.0, 1.0), 0.1);
    std::vector<double> x{0.0, 0.0};
    const std::vector<double> second(10, 0.0);
    std::vector<double> ys(10);
    dss.stepBlock2(x, 1.0, second.data(), ys.size(), ys.data());
    EXPECT_DOUBLE_EQ(ys[0], 0.0);      // zero state, no feedthrough
    EXPECT_GT(ys[9], ys[1]);           // rising toward DC gain
}

TEST(StateSpace, SpectralRadiusStable)
{
    const auto dss =
        DiscreteStateSpaceN::zoh(decoupledLags(1.0, 2.0), 0.1);
    EXPECT_LT(dss.spectralRadiusEstimate(), 1.0);
    EXPECT_GT(dss.spectralRadiusEstimate(), 0.0);
}

TEST(StateSpace, SpectralRadiusComplexPair)
{
    // Lightly damped oscillator has a complex eigenpair; the closed
    // form on the discretised Ad must give |lambda| = exp(-0.1 dt).
    const auto dss = DiscreteStateSpaceN::zoh(
        system2(mat2(-0.1, -10.0, 10.0, -0.1), {1.0, 0.0, 0.0, 1.0},
                {1.0, 0.0}),
        0.01);
    const double rho = spectralRadius2(dss.ad());
    EXPECT_NEAR(rho, std::exp(-0.1 * 0.01), 1e-9);
}

TEST(Signals, Pulse)
{
    const auto s = pulseSignal(10, 1.0, 9.0, 3, 4);
    EXPECT_DOUBLE_EQ(s[2], 1.0);
    EXPECT_DOUBLE_EQ(s[3], 9.0);
    EXPECT_DOUBLE_EQ(s[6], 9.0);
    EXPECT_DOUBLE_EQ(s[7], 1.0);
}

TEST(Signals, PulseClampedToLength)
{
    const auto s = pulseSignal(5, 0.0, 1.0, 3, 10);
    EXPECT_DOUBLE_EQ(s[4], 1.0);
    EXPECT_EQ(s.size(), 5u);
}

TEST(Signals, PulseTrain)
{
    const auto s = pulseTrainSignal(12, 0.0, 1.0, 0, 2, 4);
    // Pattern: 1 1 0 0 | 1 1 0 0 | 1 1 0 0
    for (size_t t = 0; t < s.size(); ++t)
        EXPECT_DOUBLE_EQ(s[t], (t % 4) < 2 ? 1.0 : 0.0) << "t=" << t;
}

TEST(WorstCase, AllNegativeKernel)
{
    const std::vector<double> h{-1.0, -0.5, -0.25};
    const auto wc = bangBangWorstCase(h, 0.0, 2.0);
    EXPECT_DOUBLE_EQ(wc.minOutput, -3.5); // all taps at hi
    EXPECT_DOUBLE_EQ(wc.maxOutput, 0.0);  // all taps at lo
    for (double u : wc.minInput)
        EXPECT_DOUBLE_EQ(u, 2.0);
}

TEST(WorstCase, MixedSignKernel)
{
    const std::vector<double> h{-1.0, 0.5};
    const auto wc = bangBangWorstCase(h, 1.0, 3.0);
    // min: -1*3 + 0.5*1 = -2.5 ; max: -1*1 + 0.5*3 = 0.5
    EXPECT_DOUBLE_EQ(wc.minOutput, -2.5);
    EXPECT_DOUBLE_EQ(wc.maxOutput, 0.5);
    // Input sequence is time-reversed kernel sign pattern: u[0] pairs
    // with h[1].
    EXPECT_DOUBLE_EQ(wc.minInput[0], 1.0);
    EXPECT_DOUBLE_EQ(wc.minInput[1], 3.0);
}

TEST(WorstCase, ReplayAchievesBound)
{
    // Convolving the extremal input with the kernel must reproduce the
    // reported extreme at the final sample.
    const std::vector<double> h{-1.0, 0.7, -0.3, 0.1};
    const auto wc = bangBangWorstCase(h, -2.0, 5.0);
    double y = 0.0;
    const size_t k = h.size();
    for (size_t j = 0; j < k; ++j)
        y += h[j] * wc.minInput[k - 1 - j];
    EXPECT_NEAR(y, wc.minOutput, 1e-12);
}

TEST(WorstCase, DegenerateEqualBounds)
{
    const std::vector<double> h{-1.0, 0.5};
    const auto wc = bangBangWorstCase(h, 2.0, 2.0);
    EXPECT_DOUBLE_EQ(wc.minOutput, wc.maxOutput);
    EXPECT_DOUBLE_EQ(wc.minOutput, -1.0); // (-1+0.5)*2
}

TEST(WorstCase, L1Norm)
{
    // For inputs bounded in magnitude by 1 the bang-bang extremes are
    // the l1 norm of the impulse response, +-sum |h|; an empty
    // response has no gain.
    const auto wc = bangBangWorstCase({1.0, -2.0, 3.0}, -1.0, 1.0);
    EXPECT_DOUBLE_EQ(wc.maxOutput, 6.0);
    EXPECT_DOUBLE_EQ(wc.minOutput, -6.0);
    const auto none = bangBangWorstCase({}, -1.0, 1.0);
    EXPECT_DOUBLE_EQ(none.maxOutput, 0.0);
    EXPECT_DOUBLE_EQ(none.minOutput, 0.0);
}

TEST(WorstCase, ResonantSquareWave)
{
    const auto s = resonantSquareWave(8, 2, 0.0, 1.0);
    const std::vector<double> expect{1, 1, 0, 0, 1, 1, 0, 0};
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_DOUBLE_EQ(s[i], expect[i]);
}

// Property sweep: ZOH discretisation of a stable oscillator stays
// stable and matches a fine-step Euler integration.
class ZohSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ZohSweep, MatchesFineEuler)
{
    const double wn = GetParam(); // natural frequency [rad/s]
    const double zeta = 0.3;
    // Canonical second-order: x1' = x2, x2' = -wn^2 x1 - 2 zeta wn x2 + u
    const StateSpaceN ss =
        system2(mat2(0.0, 1.0, -wn * wn, -2.0 * zeta * wn),
                {0.0, 0.0, 1.0, 0.0}, {1.0, 0.0});

    const double dt = 0.05 / wn;
    const auto dss = DiscreteStateSpaceN::zoh(ss, dt);
    EXPECT_LT(spectralRadius2(dss.ad()), 1.0);

    // Integrate one coarse step with 1000 Euler substeps, constant u.
    const std::vector<double> u{1.0, 0.0};
    const std::vector<double> x{0.2, -0.1};
    std::vector<double> fine = x;
    const int sub = 1000;
    const double h = dt / sub;
    for (int i = 0; i < sub; ++i) {
        const std::vector<double> ax = ss.a.apply(fine);
        for (unsigned r = 0; r < 2; ++r)
            fine[r] += (ax[r] + ss.b[r * 2] * u[0] +
                        ss.b[r * 2 + 1] * u[1]) *
                       h;
    }
    std::vector<double> coarse = x;
    dss.next(coarse, u);
    EXPECT_NEAR(coarse[0], fine[0],
                1e-3 * std::max(1.0, std::fabs(fine[0])));
    EXPECT_NEAR(coarse[1], fine[1],
                1e-3 * std::max(1.0, std::fabs(fine[1])));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ZohSweep,
                         ::testing::Values(0.5, 2.0, 10.0, 100.0, 1e4,
                                           1e6));

// ---------------------------------------------------------------- fft

TEST(Fft, NextPow2)
{
    EXPECT_EQ(nextPow2(0), 1u);
    EXPECT_EQ(nextPow2(1), 1u);
    EXPECT_EQ(nextPow2(2), 2u);
    EXPECT_EQ(nextPow2(3), 4u);
    EXPECT_EQ(nextPow2(128), 128u);
    EXPECT_EQ(nextPow2(129), 256u);
}

TEST(Fft, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT(FftPlan{12}, ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(Fft, RoundTripRecoversInput)
{
    for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{256}}) {
        FftPlan plan(n);
        vguard::Rng rng(n);
        std::vector<std::complex<double>> x(n), orig;
        for (auto &v : x)
            v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        orig = x;
        plan.forward(x.data());
        plan.inverse(x.data());
        for (size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-12) << i;
            EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-12) << i;
        }
    }
}

TEST(Fft, MatchesNaiveDft)
{
    const size_t n = 16;
    FftPlan plan(n);
    vguard::Rng rng(99);
    std::vector<std::complex<double>> x(n);
    for (auto &v : x)
        v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    auto fast = x;
    plan.forward(fast.data());
    for (size_t k = 0; k < n; ++k) {
        std::complex<double> sum = 0.0;
        for (size_t t = 0; t < n; ++t) {
            const double ang = -2.0 * M_PI * static_cast<double>(k * t) /
                               static_cast<double>(n);
            sum += x[t] * std::complex<double>(std::cos(ang),
                                               std::sin(ang));
        }
        EXPECT_NEAR(fast[k].real(), sum.real(), 1e-12) << k;
        EXPECT_NEAR(fast[k].imag(), sum.imag(), 1e-12) << k;
    }
}

TEST(Fft, CircularConvolutionTheorem)
{
    // FFT-domain pointwise product must equal direct circular
    // convolution — the exact property the partitioned convolver's
    // overlap-save blocks rely on.
    const size_t n = 32;
    FftPlan plan(n);
    vguard::Rng rng(7);
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = rng.uniform(-2.0, 2.0);
        b[i] = rng.uniform(-2.0, 2.0);
    }
    std::vector<std::complex<double>> fa(a.begin(), a.end());
    std::vector<std::complex<double>> fb(b.begin(), b.end());
    plan.forward(fa.data());
    plan.forward(fb.data());
    for (size_t i = 0; i < n; ++i)
        fa[i] *= fb[i];
    plan.inverse(fa.data());
    for (size_t i = 0; i < n; ++i) {
        double direct = 0.0;
        for (size_t k = 0; k < n; ++k)
            direct += a[k] * b[(i + n - k) % n];
        EXPECT_NEAR(fa[i].real(), direct, 1e-12) << i;
        EXPECT_NEAR(fa[i].imag(), 0.0, 1e-12) << i;
    }
}

} // namespace
