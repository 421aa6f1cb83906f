/**
 * @file
 * Per-line bookkeeping the scrub mechanisms rely on: last-write
 * time (the drift clock the adaptive policy reads) and per-line
 * error history. Grouped into regions so the adaptive policy can be
 * ablated on tracking granularity (per-line tracking is the ideal;
 * coarse regions are what a real controller would afford).
 */

#ifndef PCMSCRUB_MEM_METADATA_HH
#define PCMSCRUB_MEM_METADATA_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/shard.hh"
#include "common/types.hh"

namespace pcmscrub {

class SnapshotSink;
class SnapshotSource;

/**
 * Finite pool of provisioned spare lines backing the degradation
 * ladder's retirement stage. Retiring a line consumes one spare and
 * remaps the failing address there; a remapped line that fails
 * again may be retired again (consuming another spare) until its
 * partition runs dry.
 *
 * The spares are split into one partition per shard of the owning
 * backend's ShardPlan, as a device provisions spares per bank: shard
 * `s` owns ShardPlan::share(spares, s) of them, and a line retires
 * only into its own shard's partition. The split depends on the
 * configuration and geometry alone, and only the shard that owns a
 * line ever retires it during a parallel phase, so the pool needs no
 * lock and its outcomes do not depend on the thread count. A shard
 * can run out of spares while another still has some.
 */
class SparePool
{
  public:
    /**
     * @param spares lines provisioned for remapping, over all shards
     * @param plan the owning backend's shard plan
     */
    SparePool(std::uint64_t spares, const ShardPlan &plan);

    /** Spares provisioned over all partitions. */
    std::uint64_t capacity() const { return capacity_; }

    /** Spares left over all partitions. */
    std::uint64_t remaining() const;

    /** Whether every partition has run dry. */
    bool exhausted() const;

    /** Spares consumed so far over all partitions (== lines retired). */
    std::uint64_t retiredCount() const;

    /**
     * Consume one spare of `line`'s shard partition for `line`. Only
     * the task running that shard may call this in a parallel phase.
     *
     * @return false when the partition is exhausted (line stays put)
     */
    bool retire(LineIndex line);

    /** Whether a line has ever been remapped. */
    bool isRetired(LineIndex line) const;

    /** Times a line has been remapped. */
    std::uint32_t retirements(LineIndex line) const;

    /**
     * Serialize each partition's usage and retirement map (sorted by
     * line index so identical pools always produce identical bytes).
     */
    void saveState(SnapshotSink &sink) const;

    /** Restore state written by saveState(); capacity and shard
     *  plan must match. */
    void loadState(SnapshotSource &source);

  private:
    /** One shard's spares. */
    struct Partition
    {
        std::uint64_t capacity = 0;
        std::uint64_t used = 0;
        std::unordered_map<LineIndex, std::uint32_t> retirements;
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
    ShardPlan plan_;
    std::vector<Partition> parts_;
};

/**
 * Write-recency and error-history store.
 */
class LineMetadataStore
{
  public:
    /**
     * @param num_lines tracked lines
     * @param lines_per_region region granularity for the coarse
     *        queries (must divide nothing in particular; the last
     *        region may be short)
     */
    LineMetadataStore(std::uint64_t num_lines,
                      std::uint64_t lines_per_region);

    std::uint64_t lineCount() const { return lastWrite_.size(); }
    std::uint64_t regionCount() const { return regionOldest_.size(); }
    std::uint64_t linesPerRegion() const { return linesPerRegion_; }

    /** Region containing a line. */
    std::uint64_t regionOf(LineIndex line) const;

    /** First line of a region. */
    LineIndex regionStart(std::uint64_t region) const;

    /** Number of lines in a region (last may be short). */
    std::uint64_t regionSize(std::uint64_t region) const;

    /** Record a (full) write to a line at `now`. */
    void recordWrite(LineIndex line, Tick now);

    /** Tick of the line's last recorded write. */
    Tick lastWrite(LineIndex line) const;

    /**
     * Oldest last-write tick in a region: the conservative drift age
     * the adaptive policy must assume for the whole region. O(1) --
     * maintained incrementally with a lazy rescan on overflow.
     */
    Tick regionOldestWrite(std::uint64_t region) const;

    /** Record that a scrub check found `errors` errors in a line. */
    void recordErrors(LineIndex line, unsigned errors);

    /** Cumulative errors ever seen on a line. */
    std::uint64_t errorHistory(LineIndex line) const;

  private:
    /** Recompute a region's cached oldest-write tick. */
    void rescanRegion(std::uint64_t region) const;

    std::uint64_t linesPerRegion_;
    std::vector<Tick> lastWrite_;
    std::vector<std::uint32_t> errorCount_;

    /**
     * Cached oldest write per region; a write can only advance a
     * line's tick, so the cache is refreshed when the written line
     * was the region's oldest.
     */
    mutable std::vector<Tick> regionOldest_;
    mutable std::vector<bool> regionDirty_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_MEM_METADATA_HH
