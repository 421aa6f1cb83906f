/**
 * @file
 * The retirement spare pool: the provisioned spare lines the
 * degradation ladder's retirement stage remaps failing addresses
 * onto, split into one partition per shard.
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

} // namespace pcmscrub

#endif // PCMSCRUB_MEM_METADATA_HH
