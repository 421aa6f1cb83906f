/**
 * @file
 * Physical organisation of the simulated PCM main memory and the
 * address-to-line mapping.
 */

#ifndef PCMSCRUB_MEM_GEOMETRY_HH
#define PCMSCRUB_MEM_GEOMETRY_HH

#include <cstdint>

#include "common/types.hh"

namespace pcmscrub {

/** Location of a line inside the device hierarchy. */
struct LineLocation
{
    unsigned channel = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    unsigned offset = 0; //!< Line within the row.

    bool operator==(const LineLocation &other) const = default;
};

/**
 * Memory geometry: channels x banks x rows x lines-per-row.
 *
 * Lines are interleaved across channels first and banks second (low
 * address bits), the standard layout for spreading sequential
 * traffic over all parallelism.
 */
class MemGeometry
{
  public:
    MemGeometry(unsigned channels, unsigned banks_per_channel,
                std::uint64_t rows_per_bank, unsigned lines_per_row);

    unsigned channels() const { return channels_; }
    unsigned banksPerChannel() const { return banksPerChannel_; }

    /** Total banks across all channels. */
    unsigned totalBanks() const { return channels_ * banksPerChannel_; }

    /** Total addressable lines. */
    std::uint64_t totalLines() const;

    /** Line index -> hierarchical location. */
    LineLocation locate(LineIndex line) const;

    /** Flat bank id in [0, totalBanks) that a line maps to. */
    unsigned bankOf(LineIndex line) const;

  private:
    unsigned channels_;
    unsigned banksPerChannel_;
    std::uint64_t rowsPerBank_;
    unsigned linesPerRow_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_MEM_GEOMETRY_HH
