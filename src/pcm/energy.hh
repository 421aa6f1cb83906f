/**
 * @file
 * Energy accounting for scrub-related device operations.
 *
 * Every scrub policy charges its reads, detects, decodes, and writes
 * to an EnergyAccount so experiments can compare policies on equal
 * footing and report per-category breakdowns (paper experiment E6).
 */

#ifndef PCMSCRUB_PCM_ENERGY_HH
#define PCMSCRUB_PCM_ENERGY_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "pcm/device_config.hh"

namespace pcmscrub {

class SnapshotSink;
class SnapshotSource;

/** Energy bookkeeping categories. */
enum class EnergyCategory : unsigned {
    ArrayRead,    //!< Regular line sensing
    MarginRead,   //!< Extra cost of precision margin reads
    ArrayWrite,   //!< Program pulses
    Detect,       //!< Light-detector comparisons
    Decode,       //!< SECDED / BCH decode logic
    NumCategories,
};

/** Human-readable category name. */
const char *energyCategoryName(EnergyCategory category);

/**
 * Accumulator for energy by category.
 */
class EnergyAccount
{
  public:
    void add(EnergyCategory category, PicoJoule amount);

    PicoJoule get(EnergyCategory category) const;
    PicoJoule total() const;

    /** Merge another account into this one. */
    void merge(const EnergyAccount &other);

    /** Serialize every category total (bit-exact doubles). */
    void saveState(SnapshotSink &sink) const;

    /** Restore totals written by saveState(). */
    void loadState(SnapshotSource &source);

    std::string toString() const;

  private:
    std::array<PicoJoule,
               static_cast<unsigned>(EnergyCategory::NumCategories)>
        byCategory_{};
};

/**
 * Per-operation costs derived from the device configuration.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const DeviceConfig &config) : config_(config) {}

    /** Sensing `cells` cells of a line. */
    PicoJoule lineRead(unsigned cells) const
    {
        return config_.readEnergyPerCell * cells;
    }

    /** Extra cost of a margin read over a plain read. */
    PicoJoule marginReadExtra(unsigned cells) const
    {
        return config_.marginReadExtraPerCell * cells;
    }

    /** Program pulses: total iterations across all written cells. */
    PicoJoule lineWrite(std::uint64_t total_iterations) const
    {
        return config_.programPulseEnergyPerCell *
            static_cast<double>(total_iterations);
    }

    PicoJoule secdedDecode() const { return config_.secdedDecodeEnergy; }
    PicoJoule lightDetect() const { return config_.lightDetectEnergy; }
    PicoJoule bchCheck() const { return config_.bchCheckEnergy; }
    PicoJoule bchFullDecode() const
    {
        return config_.bchFullDecodeEnergy;
    }

  private:
    DeviceConfig config_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_PCM_ENERGY_HH
