/**
 * @file
 * Tests for ShardPlan, the fixed geometry-only partition of the line
 * population that underpins bit-identical parallel runs.
 */

#include <gtest/gtest.h>

#include "common/shard.hh"

namespace pcmscrub {
namespace {

TEST(ShardPlan, CoversEveryLineExactlyOnce)
{
    const ShardPlan plan(10000, 64);
    std::uint64_t covered = 0;
    std::uint64_t expectedBegin = 0;
    for (std::size_t shard = 0; shard < plan.count(); ++shard) {
        const ShardRange range = plan.range(shard);
        EXPECT_EQ(range.begin, expectedBegin);
        EXPECT_GT(range.end, range.begin) << "empty shard " << shard;
        covered += range.size();
        expectedBegin = range.end;
    }
    EXPECT_EQ(covered, 10000u);
    EXPECT_EQ(expectedBegin, 10000u);
}

TEST(ShardPlan, ShardOfAgreesWithRanges)
{
    const ShardPlan plan(4097, 0);
    for (std::size_t shard = 0; shard < plan.count(); ++shard) {
        const ShardRange range = plan.range(shard);
        EXPECT_EQ(plan.shardOf(range.begin), shard);
        EXPECT_EQ(plan.shardOf(range.end - 1), shard);
    }
}

TEST(ShardPlan, ZeroRequestsDefaultShardCount)
{
    const ShardPlan plan(1 << 20, 0);
    EXPECT_EQ(plan.count(), ShardPlan::kDefaultShards);
}

TEST(ShardPlan, ClampsToPopulation)
{
    EXPECT_EQ(ShardPlan(3, 64).count(), 3u);
    EXPECT_EQ(ShardPlan(1, 64).count(), 1u);
    EXPECT_EQ(ShardPlan(5, 5).count(), 5u);
}

TEST(ShardPlan, TinyPopulationsNeverProduceEmptyShards)
{
    for (std::uint64_t lines = 1; lines <= 130; ++lines) {
        const ShardPlan plan(lines, 0);
        std::uint64_t covered = 0;
        for (std::size_t shard = 0; shard < plan.count(); ++shard) {
            EXPECT_GT(plan.range(shard).size(), 0u)
                << lines << " lines, shard " << shard;
            covered += plan.range(shard).size();
        }
        EXPECT_EQ(covered, lines);
    }
}

TEST(ShardPlan, PlanIsGeometryOnly)
{
    // The same geometry always yields the same partition — the plan
    // has no dependence on thread count or any runtime state, which
    // is what makes per-shard RNG streams reproducible.
    const ShardPlan a(8192, 0);
    const ShardPlan b(8192, 0);
    ASSERT_EQ(a.count(), b.count());
    for (std::size_t shard = 0; shard < a.count(); ++shard) {
        EXPECT_EQ(a.range(shard).begin, b.range(shard).begin);
        EXPECT_EQ(a.range(shard).end, b.range(shard).end);
    }
}

TEST(ShardPlan, ShareSplitsABudgetEvenly)
{
    // Per-shard repair budgets: the shares sum to the budget, differ
    // by at most one, and the first budget % count shards get the
    // larger share.
    const ShardPlan plan(1000, 64);
    ASSERT_EQ(plan.count(), 63u); // 16 lines per shard.
    for (const std::uint64_t budget : {0ull, 1ull, 62ull, 63ull, 64ull,
                                       200ull, 1000ull}) {
        std::uint64_t total = 0;
        for (std::size_t shard = 0; shard < plan.count(); ++shard) {
            const std::uint64_t share = plan.share(budget, shard);
            EXPECT_EQ(share, budget / plan.count() +
                                 (shard < budget % plan.count() ? 1 : 0))
                << "budget " << budget << ", shard " << shard;
            total += share;
        }
        EXPECT_EQ(total, budget);
    }
}

} // namespace
} // namespace pcmscrub
