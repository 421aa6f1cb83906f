/**
 * @file
 * Experiment E1 — drift-model motivation figure.
 *
 * Reproduces the paper's "why scrub is hard for MLC PCM" plot: the
 * per-cell soft-error probability as a function of time since the
 * cell was programmed, broken out by storage level, plus the
 * population mixture. A Monte-Carlo column drawn from the same
 * physics (independent R0, intrinsic speed, per-write exponent)
 * cross-checks the closed form the rest of the system relies on.
 *
 * Expected shape: intermediate levels (especially the second-highest
 * band) dominate; probabilities climb steadily with log(time); the
 * top band never drift-fails. SECDED-scale error rates are reached
 * within hours, not years.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "common/random.hh"
#include "pcm/drift_model.hh"

using namespace pcmscrub;
using namespace pcmscrub::bench;

namespace {

double
monteCarlo(const DeviceConfig &config, unsigned level, double t,
           Random &rng)
{
    if (!config.hasUpperThreshold(level))
        return 0.0;
    const double u = t <= config.driftT0Seconds
        ? 0.0 : std::log10(t / config.driftT0Seconds);
    const int draws = 200000;
    int failures = 0;
    for (int i = 0; i < draws; ++i) {
        const double logR0 = rng.normal(config.levelMeanLogR[level],
                                        config.sigmaLogR);
        const double speed = rng.logNormal(0.0,
                                           config.driftSpeedSigmaLn);
        const double nu = speed * std::max(
            0.0, rng.normal(config.driftMu[level],
                            config.driftSigma(level)));
        failures += logR0 + nu * u > config.readThresholdLogR[level];
    }
    return failures / static_cast<double>(draws);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv, 7);

    const DeviceConfig config;
    const DriftModel model(config);
    model.prewarm();
    Random rng(opt.seed);

    std::printf("E1: per-cell drift soft-error probability vs. age\n");
    Table table("E1 drift error probability",
                {"age", "level0", "level1", "level2", "level3",
                 "cell_avg", "cell_avg_mc"});

    const struct { const char *label; double seconds; } ages[] = {
        {"1min", 60.0},        {"15min", 900.0},
        {"1h", 3600.0},        {"6h", 21600.0},
        {"1day", 86400.0},     {"1week", 604800.0},
        {"1month", 2.63e6},    {"1year", 3.156e7},
    };

    for (const auto &age : ages) {
        double mcSum = 0.0;
        for (unsigned level = 0; level < mlcLevels; ++level)
            mcSum += monteCarlo(config, level, age.seconds, rng);
        table.row().cell(age.label);
        for (unsigned level = 0; level < mlcLevels; ++level)
            table.cellSci(model.levelErrorProb(level, age.seconds), 2);
        table.cellSci(model.cellErrorProb(age.seconds), 2);
        table.cellSci(mcSum / mlcLevels, 2);
    }
    table.print();

    std::printf("\nSafe data ages implied by the model "
                "(per-line UE target 1e-7, 296-cell line):\n");
    Table safe("E1b safe age by ECC strength",
               {"ecc", "safe_age_hours"});
    for (const unsigned t : {1u, 2u, 4u, 6u, 8u}) {
        safe.row()
            .cell("BCH-" + std::to_string(t))
            .cell(model.timeToLineUncorrectable(296, t, 1e-7) / 3600.0,
                  2);
    }
    safe.print();
    return 0;
}
