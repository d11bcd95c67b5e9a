#include "linsys/matn.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace vguard::linsys {

MatN::MatN(unsigned n) : n_(n), v_(static_cast<size_t>(n) * n, 0.0)
{
    if (n == 0 || n > 8)
        fatal("MatN: size %u out of supported range 1..8", n);
}

MatN
MatN::identity(unsigned n)
{
    MatN m(n);
    for (unsigned i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

MatN
MatN::operator+(const MatN &o) const
{
    VGUARD_CHECK(n_ == o.n_);
    MatN r(n_);
    for (size_t i = 0; i < v_.size(); ++i)
        r.v_[i] = v_[i] + o.v_[i];
    return r;
}

MatN
MatN::operator-(const MatN &o) const
{
    VGUARD_CHECK(n_ == o.n_);
    MatN r(n_);
    for (size_t i = 0; i < v_.size(); ++i)
        r.v_[i] = v_[i] - o.v_[i];
    return r;
}

MatN
MatN::operator*(const MatN &o) const
{
    VGUARD_CHECK(n_ == o.n_);
    MatN r(n_);
    for (unsigned i = 0; i < n_; ++i)
        for (unsigned k = 0; k < n_; ++k) {
            const double a = at(i, k);
            if (a == 0.0)
                continue;
            for (unsigned j = 0; j < n_; ++j)
                r.at(i, j) += a * o.at(k, j);
        }
    return r;
}

MatN
MatN::operator*(double s) const
{
    MatN r(n_);
    for (size_t i = 0; i < v_.size(); ++i)
        r.v_[i] = v_[i] * s;
    return r;
}

std::vector<double>
MatN::apply(const std::vector<double> &x) const
{
    std::vector<double> y;
    applyInto(x, y);
    return y;
}

void
MatN::applyInto(const std::vector<double> &x, std::vector<double> &y) const
{
    VGUARD_CHECK(x.size() == n_);
    VGUARD_CHECK(&x != &y);
    y.resize(n_);
    for (unsigned i = 0; i < n_; ++i) {
        double acc = 0.0;
        for (unsigned j = 0; j < n_; ++j)
            acc += at(i, j) * x[j];
        y[i] = acc;
    }
}

double
MatN::maxAbs() const
{
    double m = 0.0;
    for (double x : v_)
        m = std::max(m, std::fabs(x));
    return m;
}

MatN
MatN::inverse() const
{
    MatN a(*this);
    MatN inv = identity(n_);
    for (unsigned col = 0; col < n_; ++col) {
        // Partial pivot.
        unsigned pivot = col;
        for (unsigned r = col + 1; r < n_; ++r)
            if (std::fabs(a.at(r, col)) > std::fabs(a.at(pivot, col)))
                pivot = r;
        if (std::fabs(a.at(pivot, col)) < 1e-300)
            panic("MatN::inverse: singular matrix");
        if (pivot != col) {
            for (unsigned j = 0; j < n_; ++j) {
                std::swap(a.at(pivot, j), a.at(col, j));
                std::swap(inv.at(pivot, j), inv.at(col, j));
            }
        }
        const double scale = 1.0 / a.at(col, col);
        for (unsigned j = 0; j < n_; ++j) {
            a.at(col, j) *= scale;
            inv.at(col, j) *= scale;
        }
        for (unsigned r = 0; r < n_; ++r) {
            if (r == col)
                continue;
            const double f = a.at(r, col);
            if (f == 0.0)
                continue;
            for (unsigned j = 0; j < n_; ++j) {
                a.at(r, j) -= f * a.at(col, j);
                inv.at(r, j) -= f * inv.at(col, j);
            }
        }
    }
    return inv;
}

double
MatN::spectralRadiusEstimate() const
{
    // Balance the matrix first (diagonal similarity equalising row and
    // column norms) — PDN state matrices mix volts and amps and are
    // badly scaled otherwise — then run power iteration tracking the
    // geometric growth rate, which converges for complex dominant
    // pairs as well.
    MatN a(*this);
    for (int sweep = 0; sweep < 8; ++sweep) {
        for (unsigned i = 0; i < n_; ++i) {
            double rnorm = 0.0, cnorm = 0.0;
            for (unsigned j = 0; j < n_; ++j) {
                if (j != i) {
                    rnorm += std::fabs(a.at(i, j));
                    cnorm += std::fabs(a.at(j, i));
                }
            }
            if (rnorm == 0.0 || cnorm == 0.0)
                continue;
            const double f = std::sqrt(cnorm / rnorm);
            for (unsigned j = 0; j < n_; ++j) {
                a.at(i, j) *= f;
                a.at(j, i) /= f;
            }
        }
    }

    std::vector<double> v(n_);
    std::vector<double> next(n_);
    for (unsigned i = 0; i < n_; ++i)
        v[i] = 1.0 / (1.0 + i); // deterministic, non-degenerate
    double logSum = 0.0;
    int counted = 0;
    const int warmup = 200, iters = 1400;
    for (int k = 0; k < iters; ++k) {
        // Ping-pong through a preallocated buffer: the old
        // v = a.apply(v) form allocated a fresh vector on all 1400
        // iterations of every stability check.
        a.applyInto(v, next);
        v.swap(next);
        double norm = 0.0;
        for (double x : v)
            norm += x * x;
        norm = std::sqrt(norm);
        if (norm == 0.0)
            return 0.0;
        for (double &x : v)
            x /= norm;
        if (k >= warmup) {
            logSum += std::log(norm);
            ++counted;
        }
    }
    return std::exp(logSum / counted);
}

MatN
expm(const MatN &m)
{
    int s = 0;
    double norm = m.maxAbs();
    while (norm > 0.5 && s < 64) {
        norm *= 0.5;
        ++s;
    }
    const MatN a = m * std::ldexp(1.0, -s);

    MatN result = MatN::identity(m.size());
    MatN term = MatN::identity(m.size());
    for (int k = 1; k <= 18; ++k) {
        term = term * a * (1.0 / k);
        result = result + term;
    }
    for (int i = 0; i < s; ++i)
        result = result * result;
    return result;
}

DiscreteStateSpaceN
DiscreteStateSpaceN::zoh(const StateSpaceN &sys, double dt)
{
    if (!(dt > 0.0))
        fatal("DiscreteStateSpaceN::zoh: dt must be positive");
    const unsigned n = sys.a.size();
    const unsigned m = sys.inputs;
    VGUARD_CHECK(sys.b.size() == static_cast<size_t>(n) * m);

    DiscreteStateSpaceN out;
    out.ad_ = expm(sys.a * dt);
    // Bd = A^-1 (Ad - I) B. inverse() panics on a singular A (PDN
    // A-matrices are comfortably invertible); only an all-zero A — no
    // dynamics — is special-cased, where the integral is I dt.
    const MatN factor = sys.a.maxAbs() > 0.0
                            ? sys.a.inverse() * (out.ad_ - MatN::identity(n))
                            : MatN::identity(n) * dt;
    out.bd_.assign(static_cast<size_t>(n) * m, 0.0);
    for (unsigned i = 0; i < n; ++i)
        for (unsigned j = 0; j < m; ++j) {
            double acc = 0.0;
            for (unsigned k = 0; k < n; ++k)
                acc += factor.at(i, k) * sys.b[k * m + j];
            out.bd_[i * m + j] = acc;
        }
    out.c_ = sys.c;
    out.d_ = sys.d;
    out.inputs_ = m;
    out.dt_ = dt;
    out.scratch_.assign(n, 0.0);
    return out;
}

void
DiscreteStateSpaceN::next(std::vector<double> &x,
                          const std::vector<double> &u) const
{
    const unsigned n = ad_.size();
    scratch_.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        double acc = 0.0;
        for (unsigned j = 0; j < n; ++j)
            acc += ad_.at(i, j) * x[j];
        for (unsigned j = 0; j < inputs_; ++j)
            acc += bd_[i * inputs_ + j] * u[j];
        scratch_[i] = acc;
    }
    // Swap instead of copy: the per-cycle PDN step must stay free of
    // allocations and avoid the element copy.
    x.swap(scratch_);
}

// vlint: hot
void
DiscreteStateSpaceN::stepBlock2(std::vector<double> &x, double u0,
                                const double *u1, size_t n,
                                double *y) const
{
    VGUARD_CHECK(inputs_ == 2);
    const unsigned ns = ad_.size();
    VGUARD_CHECK(x.size() == ns);
    // vlint: allow(alloc-hot) sized once per block, before the cycle loop
    scratch_.resize(ns);
    for (size_t k = 0; k < n; ++k) {
        const double u1k = u1[k];
        // output(x, {u0, u1k}) with the input loop unrolled in the
        // same j = 0, 1 order so results stay bit-identical.
        double out = 0.0;
        for (unsigned i = 0; i < ns; ++i)
            out += c_[i] * x[i];
        out += d_[0] * u0;
        out += d_[1] * u1k;
        y[k] = out;
        // next(x, {u0, u1k}), same accumulation order as next().
        for (unsigned i = 0; i < ns; ++i) {
            double acc = 0.0;
            for (unsigned j = 0; j < ns; ++j)
                acc += ad_.at(i, j) * x[j];
            acc += bd_[i * 2] * u0;
            acc += bd_[i * 2 + 1] * u1k;
            scratch_[i] = acc;
        }
        x.swap(scratch_);
    }
}

double
DiscreteStateSpaceN::output(const std::vector<double> &x,
                            const std::vector<double> &u) const
{
    double acc = 0.0;
    for (unsigned i = 0; i < ad_.size(); ++i)
        acc += c_[i] * x[i];
    for (unsigned j = 0; j < inputs_; ++j)
        acc += d_[j] * u[j];
    return acc;
}

} // namespace vguard::linsys
