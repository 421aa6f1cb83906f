/**
 * @file
 * Tests for the cell-accurate array, including a statistical check
 * that array-level drift errors match the analytic model.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "pcm/array.hh"
#include "pcm/drift_model.hh"

namespace pcmscrub {
namespace {

TEST(CellArray, ConstructionAndWarmup)
{
    const DeviceConfig config;
    CellArray array(64, 512, config, 1);
    EXPECT_EQ(array.lineCount(), 64u);
    EXPECT_EQ(array.codewordBits(), 512u);
    const LineProgramStats stats = array.writeRandomAll(0);
    EXPECT_EQ(stats.cellsProgrammed, 64u * 256u);
    EXPECT_EQ(array.totalBitErrors(0), 0u);
    EXPECT_EQ(array.totalStuckCells(), 0u);
}

TEST(CellArray, DeterministicForSameSeed)
{
    const DeviceConfig config;
    CellArray a(16, 512, config, 99);
    CellArray b(16, 512, config, 99);
    a.writeRandomAll(0);
    b.writeRandomAll(0);
    const Tick later = secondsToTicks(1e6);
    EXPECT_EQ(a.totalBitErrors(later), b.totalBitErrors(later));
    EXPECT_EQ(a.line(3).intendedWord(), b.line(3).intendedWord());
}

TEST(CellArray, DifferentSeedsGiveDifferentData)
{
    const DeviceConfig config;
    CellArray a(4, 512, config, 1);
    CellArray b(4, 512, config, 2);
    a.writeRandomAll(0);
    b.writeRandomAll(0);
    EXPECT_NE(a.line(0).intendedWord(), b.line(0).intendedWord());
}

TEST(CellArray, DriftErrorsMatchAnalyticModel)
{
    // The headline cross-validation: ground-truth bit errors in the
    // sampled array at age t should match cells * cellErrorProb(t).
    const DeviceConfig config;
    const DriftModel model(config);
    model.prewarm();
    CellArray array(512, 512, config, 5);
    array.writeRandomAll(0);

    const double t = 86400.0; // One day.
    const std::uint64_t cells = 512 * 256;
    const double expected = cells * model.cellErrorProb(t);
    const double observed =
        static_cast<double>(array.totalBitErrors(secondsToTicks(t)));
    ASSERT_GT(expected, 50.0); // Test is meaningful at this age.
    EXPECT_NEAR(observed, expected,
                5.0 * std::sqrt(expected) + 0.05 * expected);
}

TEST(CellArray, ErrorsGrowWithAge)
{
    const DeviceConfig config;
    CellArray array(256, 512, config, 6);
    array.writeRandomAll(0);
    const std::uint64_t atHour =
        array.totalBitErrors(secondsToTicks(3600.0));
    const std::uint64_t atMonth =
        array.totalBitErrors(secondsToTicks(2.6e6));
    EXPECT_GE(atMonth, atHour);
    EXPECT_GT(atMonth, 0u);
}

TEST(CellArrayDeath, ZeroLinesIsFatal)
{
    const DeviceConfig config;
    EXPECT_DEATH(CellArray(0, 512, config, 1), "at least one line");
}

} // namespace
} // namespace pcmscrub
