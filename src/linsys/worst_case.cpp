#include "linsys/worst_case.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace vguard::linsys {

WorstCase
bangBangWorstCase(const std::vector<double> &impulse, double lo, double hi)
{
    if (hi < lo)
        fatal("bangBangWorstCase: hi (%g) < lo (%g)", hi, lo);

    WorstCase wc;
    const size_t k = impulse.size();
    wc.minInput.resize(k);
    wc.maxInput.resize(k);

    // y(T) = sum_j h[j] * u(T - j). Choosing u(T - j) independently per
    // tap is admissible because each tap references a distinct input
    // sample. The input achieving the extreme at its last sample is
    // u[t] = pick(h[K-1-t]).
    for (size_t j = 0; j < k; ++j) {
        const double h = impulse[j];
        const double u_min = h > 0.0 ? lo : hi;  // minimises h*u
        const double u_max = h > 0.0 ? hi : lo;  // maximises h*u
        wc.minOutput += h * u_min;
        wc.maxOutput += h * u_max;
        wc.minInput[k - 1 - j] = u_min;
        wc.maxInput[k - 1 - j] = u_max;
    }
    return wc;
}

std::vector<double>
resonantSquareWave(size_t len, size_t halfPeriod, double lo, double hi)
{
    if (halfPeriod == 0)
        fatal("resonantSquareWave: halfPeriod must be non-zero");
    std::vector<double> s(len);
    for (size_t t = 0; t < len; ++t)
        s[t] = ((t / halfPeriod) % 2 == 0) ? hi : lo;
    return s;
}

std::vector<double>
pulseSignal(size_t len, double baseline, double high, size_t start,
            size_t width)
{
    std::vector<double> s(len, baseline);
    for (size_t i = start; i < std::min(len, start + width); ++i)
        s[i] = high;
    return s;
}

std::vector<double>
pulseTrainSignal(size_t len, double baseline, double high, size_t start,
                 size_t width, size_t period)
{
    if (period == 0)
        fatal("pulseTrainSignal: period must be non-zero");
    std::vector<double> s(len, baseline);
    for (size_t t = start; t < len; t += period)
        for (size_t i = t; i < std::min(len, t + width); ++i)
            s[i] = high;
    return s;
}

} // namespace vguard::linsys
