#include "core/replay_sweep.hpp"

#include <algorithm>
#include <cmath>

#include "obs/tracing.hpp"

#include "util/logging.hpp"

namespace vguard::core {

void
SweepLane::validate() const
{
    VGUARD_CHECK(std::isfinite(band) && band >= 0.0);
    VGUARD_CHECK(std::isfinite(iTrim));
    VGUARD_CHECK(std::isfinite(histLo) && std::isfinite(histHi) &&
                 histLo < histHi);
    VGUARD_CHECK(histBins >= 1);
}

void
SweepLane::resetTally(RailTally &t) const
{
    t.reset(package.vNominal, band, histLo, histHi, histBins);
}

std::vector<SweepLaneResult>
replaySweep(const double *amps, size_t n,
            const std::vector<SweepLane> &lanes)
{
    VGUARD_CHECK(!lanes.empty());
    const size_t k = lanes.size();
    std::vector<pdn::LaneConfig> cfgs;
    std::vector<SweepLaneResult> results(k);
    cfgs.reserve(k);
    for (size_t lane = 0; lane < k; ++lane) {
        lanes[lane].validate();
        lanes[lane].resetTally(results[lane]);
        cfgs.push_back({lanes[lane].package, lanes[lane].iTrim});
    }
    const auto backend = pdn::makeBatchedBackend(cfgs);

    std::vector<double> volts(kLaneBlockCycles * k);
    size_t done = 0;
    while (done < n) {
        const size_t chunk = std::min(kLaneBlockCycles, n - done);
        {
            // One Wall-class span per block (thousands of cycles, so
            // the span cost vanishes). Emitted here rather than in
            // the backend: pdn sits below obs in the layering.
            obs::TraceSpan span("pdn.backend.step_shared",
                                obs::TraceClass::Wall);
            span.arg("cycles", uint64_t{chunk})
                .arg("lanes", uint64_t{k});
            backend->stepShared(amps + done, chunk, volts.data());
        }
        for (size_t cyc = 0; cyc < chunk; ++cyc) {
            const double *row = volts.data() + cyc * k;
            for (size_t lane = 0; lane < k; ++lane)
                results[lane].add(row[lane]);
        }
        done += chunk;
    }
    return results;
}

} // namespace vguard::core
