/**
 * @file
 * Post-package repair: a bounded table of dedicated spare rows plus
 * the chronically-erroring-line tracker that decides which addresses
 * deserve one.
 *
 * Modelled after the EDAC mem-repair verb: a PPR operation fuses a
 * failing row over to a spare permanently, so a remap is one-shot per
 * address — a remapped line that fails again must fall through to
 * the next ladder rung (spare-pool retirement). The UE-history
 * tracker counts full-decode failures per line so only *chronic*
 * offenders consume the scarce spare rows (HARP-style profiling of
 * at-risk lines), not lines felled by a one-off transient event.
 *
 * Partitioned like SparePool: shard `s` of the owning backend's
 * ShardPlan owns ShardPlan::share(spare_rows, s) rows and the UE
 * history of its own lines, and only that shard's task touches them
 * during a parallel phase. The table therefore needs no lock, and
 * which lines get a row does not depend on the thread count.
 */

#ifndef PCMSCRUB_MEM_PPR_HH
#define PCMSCRUB_MEM_PPR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/shard.hh"
#include "common/types.hh"

namespace pcmscrub {

class SnapshotSink;
class SnapshotSource;

/**
 * Bounded spare-row remap table with per-line UE history.
 */
class PprRemapTable
{
  public:
    /**
     * @param spare_rows rows provisioned for repair, over all shards
     * @param plan the owning backend's shard plan
     * @param ue_threshold UE escalations before a line qualifies
     */
    PprRemapTable(std::uint64_t spare_rows, const ShardPlan &plan,
                  unsigned ue_threshold = 2);

    /** Rows provisioned over all partitions. */
    std::uint64_t capacity() const { return capacity_; }

    /** Rows left over all partitions. */
    std::uint64_t remaining() const;

    /** Whether every partition has run dry. */
    bool exhausted() const;

    /** Spare rows consumed so far over all partitions (== lines
     *  remapped). */
    std::uint64_t remappedCount() const;

    /** Whether `line`'s shard partition has no row left. */
    bool partitionExhausted(LineIndex line) const;

    /**
     * Record one UE escalation on `line` (the chronic tracker).
     *
     * @return the line's cumulative UE count including this one
     */
    std::uint32_t noteUncorrectable(LineIndex line);

    /** Cumulative UE escalations recorded on a line. */
    std::uint32_t ueHistory(LineIndex line) const;

    /** Whether a line qualifies for repair right now: chronic
     *  (history >= threshold), not yet remapped, rows left in its
     *  shard partition. */
    bool qualifies(LineIndex line) const;

    /**
     * Consume one spare row of `line`'s shard partition for `line`.
     * Fails (returns false) when the partition is exhausted or the
     * line is already remapped — PPR is permanent, there is no
     * second fuse for the same address. Only the task running that
     * shard may call this in a parallel phase.
     */
    bool remap(LineIndex line);

    /** Whether a line has been remapped to a spare row. */
    bool isRemapped(LineIndex line) const;

    /**
     * Serialize capacity, then each partition's usage and per-line
     * history/remap map (sorted by line index so identical tables
     * always produce identical bytes).
     */
    void saveState(SnapshotSink &sink) const;

    /** Restore state written by saveState(); capacity, threshold and
     *  shard plan must match the construction parameters. */
    void loadState(SnapshotSource &source);

  private:
    /** Per-line tracker entry. */
    struct Entry
    {
        std::uint32_t ueCount = 0;
        bool remapped = false;
    };

    /** One shard's rows and tracker entries. */
    struct Partition
    {
        std::uint64_t capacity = 0;
        std::uint64_t used = 0;
        std::unordered_map<LineIndex, Entry> entries;
    };

    const Partition &partitionOf(LineIndex line) const
    {
        return parts_[plan_.shardOf(line)];
    }

    Partition &partitionOf(LineIndex line)
    {
        return parts_[plan_.shardOf(line)];
    }

    std::uint64_t capacity_;
    unsigned ueThreshold_;
    ShardPlan plan_;
    std::vector<Partition> parts_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_MEM_PPR_HH
