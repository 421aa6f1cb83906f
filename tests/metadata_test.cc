/**
 * @file
 * Tests for the per-shard partitions of the repair resources
 * (spare pool, PPR rows).
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "mem/metadata.hh"
#include "mem/ppr.hh"

namespace pcmscrub {
namespace {

// ---------------------------------------------------------------
// Repair resources: one partition per shard.
// ---------------------------------------------------------------

TEST(SparePool, EachShardRetiresIntoItsOwnPartition)
{
    // 8 lines in 4 shards of 2; 6 spares split 2, 2, 1, 1.
    const ShardPlan plan(8, 4);
    SparePool pool(6, plan);
    EXPECT_EQ(pool.capacity(), 6u);

    // Shard 3 (lines 6, 7) owns one spare: the second retirement
    // there fails although other shards still have spares.
    EXPECT_TRUE(pool.retire(6));
    EXPECT_FALSE(pool.retire(7));
    EXPECT_FALSE(pool.isRetired(7));
    EXPECT_EQ(pool.remaining(), 5u);
    EXPECT_FALSE(pool.exhausted());

    // A line may retire again into its own shard's partition.
    EXPECT_TRUE(pool.retire(0));
    EXPECT_TRUE(pool.retire(0));
    EXPECT_FALSE(pool.retire(1));
    EXPECT_EQ(pool.retirements(0), 2u);

    EXPECT_TRUE(pool.retire(2));
    EXPECT_TRUE(pool.retire(3));
    EXPECT_TRUE(pool.retire(5));
    EXPECT_EQ(pool.retiredCount(), 6u);
    EXPECT_TRUE(pool.exhausted());
}

TEST(SparePool, StateRoundTripsPerPartition)
{
    const ShardPlan plan(8, 4);
    SparePool pool(6, plan);
    pool.retire(0);
    pool.retire(0);
    pool.retire(5);
    SnapshotSink sink;
    pool.saveState(sink);

    SparePool restored(6, plan);
    SnapshotSource source(sink.bytes().data(), sink.bytes().size(),
                          "spares");
    restored.loadState(source);
    source.finish();
    EXPECT_EQ(restored.retiredCount(), 3u);
    EXPECT_EQ(restored.retirements(0), 2u);
    EXPECT_TRUE(restored.isRetired(5));
    EXPECT_FALSE(restored.retire(1)); // Shard 0's two spares are gone.
    EXPECT_FALSE(restored.retire(4)); // So is shard 2's one.
    EXPECT_TRUE(restored.retire(2));  // Shard 1 has both left.
}

/** Saved bytes of a 2-line, 2-shard pool of 2 spares whose shard 0
 *  partition claims `used` spares over the given entries. */
std::vector<std::uint8_t>
sparePoolBytes(std::uint64_t used,
               const std::vector<std::pair<LineIndex, std::uint32_t>>
                   &entries)
{
    SnapshotSink sink;
    sink.u64(2); // Capacity.
    sink.u64(2); // Partitions.
    sink.u64(1); // Shard 0: capacity, usage, entries.
    sink.u64(used);
    sink.u64(entries.size());
    for (const auto &[line, count] : entries) {
        sink.u64(line);
        sink.u32(count);
    }
    sink.u64(1); // Shard 1: capacity, usage, no entries.
    sink.u64(0);
    sink.u64(0);
    return sink.takeBytes();
}

TEST(SparePoolDeath, LoadRejectsAMapThatDoesNotSumToItsPartition)
{
    const ShardPlan plan(2, 2);
    const auto load = [&plan](const std::vector<std::uint8_t> &bytes) {
        SparePool pool(2, plan);
        SnapshotSource source(bytes.data(), bytes.size(), "spares");
        pool.loadState(source);
    };
    load(sparePoolBytes(1, {{0, 1}})); // Well formed.
    EXPECT_DEATH(load(sparePoolBytes(1, {})),
                 "partition usage does not sum to its entries");
    EXPECT_DEATH(load(sparePoolBytes(1, {{1, 1}})),
                 "entry outside its shard");
    EXPECT_DEATH(load(sparePoolBytes(2, {{0, 2}})),
                 "uses more spares than its capacity");
}

TEST(PprRemapTable, EachShardRemapsFromItsOwnPartition)
{
    // 4 lines in 4 shards; 2 rows go to shards 0 and 1.
    const ShardPlan plan(4, 4);
    PprRemapTable table(2, plan, /*ue_threshold=*/1);
    EXPECT_EQ(table.partitionCapacity(0), 1u);
    EXPECT_EQ(table.partitionCapacity(3), 0u);

    table.noteUncorrectable(3);
    EXPECT_FALSE(table.qualifies(3)); // Chronic, but shard 3 has no row.
    EXPECT_TRUE(table.partitionExhausted(3));
    EXPECT_FALSE(table.remap(3));

    table.noteUncorrectable(1);
    EXPECT_TRUE(table.qualifies(1));
    EXPECT_TRUE(table.remap(1));
    EXPECT_TRUE(table.partitionExhausted(1));
    EXPECT_FALSE(table.partitionExhausted(0));
    EXPECT_EQ(table.remaining(), 1u);
    EXPECT_FALSE(table.exhausted());
    EXPECT_TRUE(table.remap(0));
    EXPECT_TRUE(table.exhausted());
    EXPECT_EQ(table.remappedCount(), 2u);

    SnapshotSink sink;
    table.saveState(sink);
    PprRemapTable restored(2, plan, 1);
    SnapshotSource source(sink.bytes().data(), sink.bytes().size(),
                          "ppr");
    restored.loadState(source);
    source.finish();
    EXPECT_TRUE(restored.isRemapped(0));
    EXPECT_TRUE(restored.isRemapped(1));
    EXPECT_EQ(restored.ueHistory(3), 1u);
    EXPECT_TRUE(restored.exhausted());
}

TEST(PprRemapTableDeath, LoadRejectsAMapThatDoesNotSumToItsPartition)
{
    const ShardPlan plan(2, 2);
    const auto load = [&plan](std::uint64_t used, bool remapped) {
        SnapshotSink sink;
        sink.u64(2); // Capacity.
        sink.u32(1); // UE threshold.
        sink.u64(2); // Partitions.
        sink.u64(1); // Shard 0: capacity, usage, one entry.
        sink.u64(used);
        sink.u64(1);
        sink.u64(0);
        sink.u32(1);
        sink.boolean(remapped);
        sink.u64(1); // Shard 1: capacity, usage, no entries.
        sink.u64(0);
        sink.u64(0);
        PprRemapTable table(2, plan, 1);
        SnapshotSource source(sink.bytes().data(), sink.bytes().size(),
                              "ppr");
        table.loadState(source);
    };
    load(1, true); // Well formed.
    EXPECT_DEATH(load(1, false),
                 "partition usage does not sum to its entries");
    EXPECT_DEATH(load(0, true),
                 "partition usage does not sum to its entries");
}

} // namespace
} // namespace pcmscrub
