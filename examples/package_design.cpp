/**
 * @file
 * Package-design walkthrough: the control-theoretic design flow of the
 * paper's Fig. 13 as an API tour.
 *
 *  1. Characterise the processor (current envelope).
 *  2. Calibrate the target impedance for a chosen voltage band.
 *  3. Explore packages at multiples of target impedance: peak
 *     impedance, Q, worst-case swings.
 *  4. Solve safe controller thresholds for each sensor delay, i.e.
 *     regenerate a Table-3-style threshold schedule for *your*
 *     package.
 *
 * Usage: package_design [resonance_mhz] [band_percent]
 */

#include <cstdio>

#include "core/experiments.hpp"
#include "core/threshold_solver.hpp"
#include "example_args.hpp"
#include "pdn/impulse.hpp"
#include "pdn/target_impedance.hpp"
#include "util/table.hpp"

using namespace vguard;
using namespace vguard::core;

int
main(int argc, char **argv)
{
    const double f0 =
        (argc > 1 ? examples::positiveRealArg(
                        "package_design: resonance_mhz", argv[1])
                  : 50.0) *
        1e6;
    const double band =
        (argc > 2 ? examples::positiveRealArg(
                        "package_design: band_percent", argv[2])
                  : 5.0) /
        100.0;

    // 1. Processor characterisation.
    const auto &range = referenceCurrentRange();
    std::printf("processor: program current %.1f..%.1f A; actuator "
                "extends to %.1f..%.1f A\n",
                range.progMin, range.progMax, range.gatedMin,
                range.phantomMax);

    // 2. Target impedance for this band and resonance.
    pdn::TargetImpedanceSpec tspec;
    tspec.f0Hz = f0;
    tspec.band = band;
    tspec.iMin = range.progMin;
    tspec.iMax = range.progMax;
    tspec.iTrim = range.gatedMin;
    const auto target = pdn::calibrateTargetImpedance(tspec);
    std::printf("target impedance @ %.0f MHz, +/-%.1f%%: %.3f mOhm\n\n",
                f0 / 1e6, band * 100.0, target.zTargetOhms * 1e3);

    // 3. Package exploration.
    Table pkgs({"impedance", "peak Z (mOhm)", "Q", "worst dip (V)",
                "worst peak (V)"});
    for (double scale : {1.0, 2.0, 3.0, 4.0}) {
        const auto m = pdn::PackageModel::design(
            f0, target.zTargetOhms * scale);
        double vMin, vMax;
        pdn::worstCaseExtremes(m, range.progMin, range.progMax, vMin,
                               vMax, range.gatedMin);
        char label[16];
        std::snprintf(label, sizeof(label), "%3.0f%%", scale * 100.0);
        pkgs.addRow({label, Table::fmt(m.peakImpedance() * 1e3, 4),
                     Table::fmt(m.qualityFactor(), 3),
                     Table::fmt(vMin, 5), Table::fmt(vMax, 5)});
    }
    std::printf("%s\n", pkgs.ascii().c_str());

    // 4. Threshold schedule for the 200 % package (Table 3 flow).
    Table th({"delay (cycles)", "vLow (V)", "vHigh (V)",
              "safe window (mV)"});
    for (unsigned d = 0; d <= 6; ++d) {
        ThresholdSpec spec;
        spec.f0Hz = f0;
        spec.band = band;
        spec.zPeakOhms = target.zTargetOhms * 2.0;
        spec.iMin = range.progMin;
        spec.iMax = range.progMax;
        spec.iGate = range.gatedMin;
        spec.iPhantom = range.phantomMax;
        spec.iTrim = range.gatedMin;
        spec.delayCycles = d;
        const auto sol = solveThresholds(spec);
        th.addRow({std::to_string(d), Table::fmt(sol.vLow, 5),
                   Table::fmt(sol.vHigh, 5),
                   Table::fmt(sol.safeWindowV() * 1e3, 4)});
    }
    std::printf("thresholds for the 200%%-impedance package:\n%s",
                th.ascii().c_str());
    return 0;
}
