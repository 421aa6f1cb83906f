#include "mem/geometry.hh"

#include "common/logging.hh"

namespace pcmscrub {

MemGeometry::MemGeometry(unsigned channels, unsigned banks_per_channel,
                         std::uint64_t rows_per_bank,
                         unsigned lines_per_row)
    : channels_(channels),
      banksPerChannel_(banks_per_channel),
      rowsPerBank_(rows_per_bank),
      linesPerRow_(lines_per_row)
{
    if (channels == 0 || banks_per_channel == 0 || rows_per_bank == 0 ||
        lines_per_row == 0) {
        fatal("memory geometry dimensions must all be positive");
    }
}

std::uint64_t
MemGeometry::totalLines() const
{
    return static_cast<std::uint64_t>(channels_) * banksPerChannel_ *
        rowsPerBank_ * linesPerRow_;
}

LineLocation
MemGeometry::locate(LineIndex line) const
{
    PCMSCRUB_ASSERT(line < totalLines(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    LineLocation loc;
    loc.channel = static_cast<unsigned>(line % channels_);
    line /= channels_;
    loc.bank = static_cast<unsigned>(line % banksPerChannel_);
    line /= banksPerChannel_;
    loc.offset = static_cast<unsigned>(line % linesPerRow_);
    line /= linesPerRow_;
    loc.row = line;
    return loc;
}

unsigned
MemGeometry::bankOf(LineIndex line) const
{
    const LineLocation loc = locate(line);
    return loc.channel * banksPerChannel_ + loc.bank;
}

} // namespace pcmscrub
