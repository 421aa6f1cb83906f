#include "mem/metadata.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace pcmscrub {

SparePool::SparePool(std::uint64_t spares, const ShardPlan &plan)
    : capacity_(spares), plan_(plan), parts_(plan.count())
{
    for (std::size_t shard = 0; shard < parts_.size(); ++shard)
        parts_[shard].capacity = plan_.share(spares, shard);
}

std::uint64_t
SparePool::remaining() const
{
    return capacity_ - retiredCount();
}

bool
SparePool::exhausted() const
{
    return remaining() == 0;
}

std::uint64_t
SparePool::retiredCount() const
{
    std::uint64_t used = 0;
    for (const Partition &part : parts_)
        used += part.used;
    return used;
}

bool
SparePool::retire(LineIndex line)
{
    Partition &part = partitionOf(line);
    if (part.used >= part.capacity)
        return false;
    ++part.used;
    ++part.retirements[line];
    return true;
}

bool
SparePool::isRetired(LineIndex line) const
{
    return partitionOf(line).retirements.count(line) > 0;
}

std::uint32_t
SparePool::retirements(LineIndex line) const
{
    const Partition &part = partitionOf(line);
    const auto it = part.retirements.find(line);
    return it == part.retirements.end() ? 0 : it->second;
}

void
SparePool::saveState(SnapshotSink &sink) const
{
    sink.u64(capacity_);
    sink.u64(parts_.size());
    for (const Partition &part : parts_) {
        sink.u64(part.capacity);
        sink.u64(part.used);
        std::vector<LineIndex> lines;
        lines.reserve(part.retirements.size());
        for (const auto &[line, count] : part.retirements)
            lines.push_back(line);
        std::sort(lines.begin(), lines.end());
        sink.u64(lines.size());
        for (const auto line : lines) {
            sink.u64(line);
            sink.u32(part.retirements.at(line));
        }
    }
}

void
SparePool::loadState(SnapshotSource &source)
{
    if (source.u64() != capacity_)
        source.corrupt("spare-pool capacity does not match the config");
    if (source.u64() != parts_.size())
        source.corrupt("spare-pool partition count does not match the "
                       "shard plan");
    for (std::size_t shard = 0; shard < parts_.size(); ++shard) {
        Partition &part = parts_[shard];
        if (source.u64() != part.capacity)
            source.corrupt("spare-pool partition capacity does not "
                           "match the config");
        const std::uint64_t used = source.u64();
        if (used > part.capacity)
            source.corrupt("spare-pool partition uses more spares than "
                           "its capacity");
        const std::uint64_t entries =
            source.u64Bounded(used, "spare-pool retirement entries");
        const ShardRange range = plan_.range(shard);
        part.retirements.clear();
        std::uint64_t total = 0;
        LineIndex previous = 0;
        for (std::uint64_t i = 0; i < entries; ++i) {
            const LineIndex line = source.u64();
            if (i > 0 && line <= previous)
                source.corrupt("spare-pool retirement map is not sorted");
            if (line < range.begin || line >= range.end)
                source.corrupt("spare-pool entry outside its shard");
            previous = line;
            const std::uint32_t count = source.u32();
            if (count == 0)
                source.corrupt("spare-pool entry with zero retirements");
            part.retirements[line] = count;
            total += count;
        }
        if (total != used)
            source.corrupt("spare-pool partition usage does not sum to "
                           "its entries");
        part.used = used;
    }
}

LineMetadataStore::LineMetadataStore(std::uint64_t num_lines,
                                     std::uint64_t lines_per_region)
    : linesPerRegion_(lines_per_region),
      lastWrite_(num_lines, 0),
      errorCount_(num_lines, 0)
{
    PCMSCRUB_ASSERT(num_lines >= 1, "need at least one line");
    PCMSCRUB_ASSERT(lines_per_region >= 1, "region must hold a line");
    const std::uint64_t regions =
        (num_lines + lines_per_region - 1) / lines_per_region;
    regionOldest_.assign(regions, 0);
    regionDirty_.assign(regions, false);
}

std::uint64_t
LineMetadataStore::regionOf(LineIndex line) const
{
    PCMSCRUB_ASSERT(line < lineCount(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    return line / linesPerRegion_;
}

LineIndex
LineMetadataStore::regionStart(std::uint64_t region) const
{
    PCMSCRUB_ASSERT(region < regionCount(), "region %llu out of range",
                    static_cast<unsigned long long>(region));
    return region * linesPerRegion_;
}

std::uint64_t
LineMetadataStore::regionSize(std::uint64_t region) const
{
    const LineIndex start = regionStart(region);
    return std::min<std::uint64_t>(linesPerRegion_,
                                   lineCount() - start);
}

void
LineMetadataStore::recordWrite(LineIndex line, Tick now)
{
    PCMSCRUB_ASSERT(line < lineCount(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    const std::uint64_t region = regionOf(line);
    const Tick previous = lastWrite_[line];
    lastWrite_[line] = std::max(lastWrite_[line], now);
    // If this line defined the region's oldest tick, the cached
    // minimum may have advanced; mark for lazy rescan.
    if (previous == regionOldest_[region])
        regionDirty_[region] = true;
}

Tick
LineMetadataStore::lastWrite(LineIndex line) const
{
    PCMSCRUB_ASSERT(line < lineCount(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    return lastWrite_[line];
}

void
LineMetadataStore::rescanRegion(std::uint64_t region) const
{
    const LineIndex start = regionStart(region);
    const std::uint64_t size = regionSize(region);
    Tick oldest = lastWrite_[start];
    for (std::uint64_t i = 1; i < size; ++i)
        oldest = std::min(oldest, lastWrite_[start + i]);
    regionOldest_[region] = oldest;
    regionDirty_[region] = false;
}

Tick
LineMetadataStore::regionOldestWrite(std::uint64_t region) const
{
    PCMSCRUB_ASSERT(region < regionCount(), "region %llu out of range",
                    static_cast<unsigned long long>(region));
    if (regionDirty_[region])
        rescanRegion(region);
    return regionOldest_[region];
}

void
LineMetadataStore::recordErrors(LineIndex line, unsigned errors)
{
    PCMSCRUB_ASSERT(line < lineCount(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    errorCount_[line] += errors;
}

std::uint64_t
LineMetadataStore::errorHistory(LineIndex line) const
{
    PCMSCRUB_ASSERT(line < lineCount(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    return errorCount_[line];
}

} // namespace pcmscrub
