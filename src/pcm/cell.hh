/**
 * @file
 * Cell-accurate MLC PCM model: one struct per cell plus a stateless
 * CellModel that implements programming, sensing, drift, and wear.
 *
 * Levels are Gray-coded (00, 01, 11, 10 for levels 0..3) so that the
 * dominant error mode — drifting across one threshold into the
 * adjacent band — flips exactly one stored bit.
 */

#ifndef PCMSCRUB_PCM_CELL_HH
#define PCMSCRUB_PCM_CELL_HH

#include <cstdint>

#include "common/types.hh"
#include "pcm/device_config.hh"

namespace pcmscrub {

class Random;

/** Gray encoding of a level index (2 bits). */
constexpr std::uint8_t
levelToGray(unsigned level)
{
    return static_cast<std::uint8_t>(level ^ (level >> 1));
}

/** Inverse Gray mapping for 2-bit symbols. */
constexpr unsigned
grayToLevel(std::uint8_t gray)
{
    // 00 -> 0, 01 -> 1, 11 -> 2, 10 -> 3.
    constexpr std::uint8_t table[4] = {0, 1, 3, 2};
    return table[gray & 3];
}

/**
 * State of one MLC cell.
 */
struct Cell
{
    /** Programmed resistance, log10 ohms, at write time. */
    float logR0 = 0.0f;

    /** This write's drift exponent (resampled per program). */
    float nu = 0.0f;

    /**
     * Intrinsic drift-speed factor, fixed at manufacturing: scales
     * every written drift exponent. Chronically fast cells re-fail
     * soon after each rewrite.
     */
    float nuSpeed = 1.0f;

    /** Endurance budget sampled once at manufacturing. */
    float enduranceWrites = 0.0f;

    /** Lifetime program count. */
    std::uint32_t writes = 0;

    /** Level the controller last tried to store. */
    std::uint8_t storedLevel = 0;

    /** Hard failure: the cell no longer responds to programming. */
    bool stuck = false;

    /** Level the cell is frozen at once stuck. */
    std::uint8_t stuckLevel = 0;

    /** Tick of the last successful program (drift clock zero). */
    Tick writeTick = 0;
};

/** Outcome of programming one cell. */
struct ProgramOutcome
{
    /** Program-and-verify iterations spent (0 if skipped). */
    unsigned iterations = 0;

    /** The cell wore out on this write. */
    bool wornOut = false;
};

/**
 * Stateless device physics shared by all cells of one device.
 */
class CellModel
{
  public:
    explicit CellModel(const DeviceConfig &config);

    const DeviceConfig &config() const { return config_; }

    /** Sample manufacturing-time state (endurance) for a fresh cell. */
    void initialize(Cell &cell, Random &rng) const;

    /**
     * Program a cell to `level` at time `now`.
     *
     * Samples the post-verify resistance and this write's drift
     * exponent, charges wear, and freezes the cell if its endurance
     * is exhausted (a stuck cell ignores programming).
     */
    ProgramOutcome program(Cell &cell, unsigned level, Tick now,
                           Random &rng) const;

    /** Resistance (log10 ohms) the cell would sense at time `now`. */
    double senseLogR(const Cell &cell, Tick now) const;

    /**
     * Level the read circuit reports at time `now`.
     *
     * @param threshold_shift raise every read threshold by this much
     *        (log10 ohms). A positive shift widens the sensing margin
     *        toward drift: cells that drifted slightly past a nominal
     *        threshold read back at their intended level. This is the
     *        slow reference-adjusted re-read the degradation ladder's
     *        retry stage performs.
     */
    unsigned read(const Cell &cell, Tick now,
                  double threshold_shift = 0.0) const;

    /**
     * Light margin read: true when the cell currently reads
     * *correctly* but its resistance is within the guard band below
     * the next threshold — i.e. it is about to drift into an error.
     * Already-failed cells are not flagged (the margin read cannot
     * know the intended level); the ECC path catches those.
     */
    bool marginFlagged(const Cell &cell, Tick now) const;

  private:
    DeviceConfig config_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_PCM_CELL_HH
