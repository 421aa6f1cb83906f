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

} // namespace pcmscrub
