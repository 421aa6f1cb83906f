#include "pcm/cell.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace pcmscrub {

CellModel::CellModel(const DeviceConfig &config)
    : config_(config)
{
    config_.validate();
}

void
CellModel::initialize(Cell &cell, Random &rng) const
{
    // Ziggurat draws, in exact lockstep with the quantized store's
    // sampleManufacturing (same expressions, same draw order).
    const double median = config_.enduranceMedian *
        config_.enduranceScale;
    cell.enduranceWrites = static_cast<float>(std::exp(
        std::log(median) +
        config_.enduranceSigmaLn * rng.normalZig()));
    cell.nuSpeed = config_.driftSpeedSigmaLn == 0.0
        ? 1.0f
        : static_cast<float>(
              std::exp(config_.driftSpeedSigmaLn * rng.normalZig()));
    cell.writes = 0;
    cell.stuck = false;
}

ProgramOutcome
CellModel::program(Cell &cell, unsigned level, Tick now,
                   Random &rng) const
{
    PCMSCRUB_ASSERT(level < mlcLevels, "bad target level %u", level);
    ProgramOutcome outcome;
    if (cell.stuck)
        return outcome; // Dead cells ignore programming.

    // Iteration count: extreme levels are single-pulse (full SET or
    // full RESET); intermediate levels need iterative trim. All
    // program draws are ziggurat z-scores scaled in place — the same
    // sampler warm-up and manufacturing use — so the batched rewrite
    // pipeline's scratch holds plain z-scores too.
    unsigned iterations = 1;
    if (level != 0 && level != mlcLevels - 1) {
        const double draw = config_.meanIterationsIntermediate +
            config_.sigmaIterations * rng.normalZig();
        iterations = static_cast<unsigned>(std::clamp(
            std::round(draw), 1.0,
            static_cast<double>(config_.maxProgramIterations)));
    }
    outcome.iterations = iterations;

    cell.storedLevel = static_cast<std::uint8_t>(level);
    cell.logR0 = static_cast<float>(
        config_.levelMeanLogR[level] +
        config_.sigmaLogR * rng.normalZig());
    const double sigmaNu = config_.driftSigma(level);
    // Drift exponents are non-negative physically; clamp the tail.
    // The cell's intrinsic speed factor scales this write's draw.
    cell.nu = static_cast<float>(
        static_cast<double>(cell.nuSpeed) *
        std::max(0.0, config_.driftMu[level] +
                          sigmaNu * rng.normalZig()));
    cell.writeTick = now;
    ++cell.writes;

    if (static_cast<double>(cell.writes) >=
        static_cast<double>(cell.enduranceWrites)) {
        // The final write succeeds, then the cell freezes.
        cell.stuck = true;
        cell.stuckLevel = static_cast<std::uint8_t>(level);
        outcome.wornOut = true;
    }
    return outcome;
}

double
CellModel::senseLogR(const Cell &cell, Tick now) const
{
    PCMSCRUB_ASSERT(now >= cell.writeTick,
                    "reading before the cell was written");
    const double age = ticksToSeconds(now - cell.writeTick);
    double u = 0.0;
    if (age > config_.driftT0Seconds)
        u = std::log10(age / config_.driftT0Seconds);
    return static_cast<double>(cell.logR0) +
        static_cast<double>(cell.nu) * u;
}

unsigned
CellModel::read(const Cell &cell, Tick now,
                double threshold_shift) const
{
    if (cell.stuck)
        return cell.stuckLevel; // No reference shift revives a dead cell.
    const double logR = senseLogR(cell, now);
    unsigned level = 0;
    for (unsigned l = 0; l + 1 < mlcLevels; ++l) {
        if (logR > config_.readThresholdLogR[l] + threshold_shift)
            level = l + 1;
    }
    return level;
}

bool
CellModel::marginFlagged(const Cell &cell, Tick now) const
{
    if (cell.stuck)
        return false;
    const unsigned level = read(cell, now);
    if (!config_.hasUpperThreshold(level))
        return false;
    const double logR = senseLogR(cell, now);
    return logR > config_.readThresholdLogR[level] -
        config_.marginBandLogR;
}

} // namespace pcmscrub
