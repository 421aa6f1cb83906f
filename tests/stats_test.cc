/**
 * @file
 * Tests for summaries, histograms, and counter groups.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace pcmscrub {
namespace {

TEST(SummaryStats, EmptyIsSafe)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryStats, HandComputedMoments)
{
    SummaryStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic example set: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(Histogram, BinningAndEdges)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.0);
    h.add(0.999);
    h.add(5.0);
    h.add(9.9999);
    h.add(-1.0);  // underflow
    h.add(10.0);  // overflow (right edge exclusive)
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, WeightedAdds)
{
    Histogram h(0.0, 4.0, 4);
    h.add(1.5, 10);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.binCount(1), 10u);
}

TEST(Histogram, QuantileInterpolation)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(CounterGroup, AccumulatesAndReads)
{
    CounterGroup g("scrub");
    g.add("reads");
    g.add("reads", 4);
    g.add("writes", 2);
    EXPECT_EQ(g.get("reads"), 5u);
    EXPECT_EQ(g.get("writes"), 2u);
    EXPECT_EQ(g.get("nonexistent"), 0u);
}

} // namespace
} // namespace pcmscrub
