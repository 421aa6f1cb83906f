/**
 * @file
 * Fixed partition of a line population into contiguous shards — the
 * unit of parallelism of the simulation engine.
 *
 * The shard count is a function of the device geometry alone, never
 * of the thread count: a shard owns its RNG stream, its metrics
 * slice, and its per-visit caches, so any interleaving of shard
 * execution across threads produces bit-identical results, and the
 * post-run reduction merges shard slices in ascending shard order
 * (making even floating-point sums reproducible at any thread
 * count, including one).
 */

#ifndef PCMSCRUB_COMMON_SHARD_HH
#define PCMSCRUB_COMMON_SHARD_HH

#include <cstddef>
#include <cstdint>

namespace pcmscrub {

/** Contiguous [begin, end) line range owned by one shard. */
struct ShardRange
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t size() const { return end - begin; }
};

/**
 * Even contiguous split of `lines` into a fixed number of shards.
 */
class ShardPlan
{
  public:
    /**
     * Default shard count: enough slices to load-balance any sane
     * thread count while keeping per-shard streams long-lived.
     */
    static constexpr std::size_t kDefaultShards = 64;

    ShardPlan() = default;

    /**
     * @param lines population size
     * @param shards requested shard count; 0 picks the default,
     *        and the count is always clamped to `lines` (no empty
     *        shards) with a floor of one shard
     */
    explicit ShardPlan(std::uint64_t lines, std::size_t shards = 0);

    std::size_t count() const { return count_; }
    std::uint64_t lines() const { return lines_; }

    /** Line range of one shard (last shard may be short). */
    ShardRange range(std::size_t shard) const;

    /** Shard owning a line. */
    std::size_t shardOf(std::uint64_t line) const
    {
        return static_cast<std::size_t>(line / linesPerShard_);
    }

    /**
     * Entries one shard gets of a `budget` split evenly over the
     * shards: budget / count(), plus one for each of the first
     * budget % count() shards. A function of the budget and the
     * geometry alone, like the plan itself.
     */
    std::uint64_t share(std::uint64_t budget, std::size_t shard) const
    {
        return budget / count_ + (shard < budget % count_ ? 1 : 0);
    }

  private:
    std::uint64_t lines_ = 0;
    std::size_t count_ = 1;
    std::uint64_t linesPerShard_ = 1;
};

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_SHARD_HH
