#include "mem/ppr.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace pcmscrub {

PprRemapTable::PprRemapTable(std::uint64_t spare_rows,
                             const ShardPlan &plan,
                             unsigned ue_threshold)
    : capacity_(spare_rows), ueThreshold_(ue_threshold), plan_(plan),
      parts_(plan.count())
{
    if (ue_threshold == 0)
        fatal("PPR UE threshold must be at least 1");
    for (std::size_t shard = 0; shard < parts_.size(); ++shard)
        parts_[shard].capacity = plan_.share(spare_rows, shard);
}

std::uint64_t
PprRemapTable::remaining() const
{
    return capacity_ - remappedCount();
}

bool
PprRemapTable::exhausted() const
{
    return remaining() == 0;
}

std::uint64_t
PprRemapTable::remappedCount() const
{
    std::uint64_t used = 0;
    for (const Partition &part : parts_)
        used += part.used;
    return used;
}

bool
PprRemapTable::partitionExhausted(LineIndex line) const
{
    const Partition &part = partitionOf(line);
    return part.used >= part.capacity;
}

std::uint32_t
PprRemapTable::noteUncorrectable(LineIndex line)
{
    return ++partitionOf(line).entries[line].ueCount;
}

std::uint32_t
PprRemapTable::ueHistory(LineIndex line) const
{
    const Partition &part = partitionOf(line);
    const auto it = part.entries.find(line);
    return it == part.entries.end() ? 0 : it->second.ueCount;
}

bool
PprRemapTable::qualifies(LineIndex line) const
{
    if (partitionExhausted(line))
        return false;
    const Partition &part = partitionOf(line);
    const auto it = part.entries.find(line);
    return it != part.entries.end() && !it->second.remapped &&
        it->second.ueCount >= ueThreshold_;
}

bool
PprRemapTable::remap(LineIndex line)
{
    Partition &part = partitionOf(line);
    if (part.used >= part.capacity)
        return false;
    Entry &entry = part.entries[line];
    if (entry.remapped)
        return false;
    entry.remapped = true;
    ++part.used;
    return true;
}

bool
PprRemapTable::isRemapped(LineIndex line) const
{
    const Partition &part = partitionOf(line);
    const auto it = part.entries.find(line);
    return it != part.entries.end() && it->second.remapped;
}

void
PprRemapTable::saveState(SnapshotSink &sink) const
{
    sink.u64(capacity_);
    sink.u32(ueThreshold_);
    sink.u64(parts_.size());
    for (const Partition &part : parts_) {
        sink.u64(part.capacity);
        sink.u64(part.used);
        std::vector<LineIndex> lines;
        lines.reserve(part.entries.size());
        for (const auto &[line, entry] : part.entries)
            lines.push_back(line);
        std::sort(lines.begin(), lines.end());
        sink.u64(lines.size());
        for (const auto line : lines) {
            const Entry &entry = part.entries.at(line);
            sink.u64(line);
            sink.u32(entry.ueCount);
            sink.boolean(entry.remapped);
        }
    }
}

void
PprRemapTable::loadState(SnapshotSource &source)
{
    if (source.u64() != capacity_)
        source.corrupt("PPR capacity does not match the config");
    if (source.u32() != ueThreshold_)
        source.corrupt("PPR UE threshold does not match the config");
    if (source.u64() != parts_.size())
        source.corrupt("PPR partition count does not match the shard "
                       "plan");
    for (std::size_t shard = 0; shard < parts_.size(); ++shard) {
        Partition &part = parts_[shard];
        if (source.u64() != part.capacity)
            source.corrupt("PPR partition capacity does not match the "
                           "config");
        const std::uint64_t used = source.u64();
        if (used > part.capacity)
            source.corrupt("PPR partition uses more rows than its "
                           "capacity");
        const ShardRange range = plan_.range(shard);
        const std::uint64_t count =
            source.u64Bounded(range.size(), "PPR partition entries");
        part.entries.clear();
        std::uint64_t remapped = 0;
        LineIndex previous = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const LineIndex line = source.u64();
            if (i > 0 && line <= previous)
                source.corrupt("PPR entry map is not sorted");
            if (line < range.begin || line >= range.end)
                source.corrupt("PPR entry outside its shard");
            previous = line;
            Entry entry;
            entry.ueCount = source.u32();
            entry.remapped = source.boolean();
            if (entry.ueCount == 0 && !entry.remapped)
                source.corrupt("empty PPR entry");
            remapped += entry.remapped ? 1 : 0;
            part.entries[line] = entry;
        }
        if (remapped != used)
            source.corrupt("PPR partition usage does not sum to its "
                           "entries");
        part.used = used;
    }
}

} // namespace pcmscrub
