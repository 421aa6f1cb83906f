/**
 * @file
 * Tests for Gray mapping and the cell-level device model.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "pcm/cell.hh"

namespace pcmscrub {
namespace {

TEST(GrayCode, RoundTripAndAdjacency)
{
    for (unsigned level = 0; level < mlcLevels; ++level)
        EXPECT_EQ(grayToLevel(levelToGray(level)), level);
    // Adjacent levels differ in exactly one bit.
    for (unsigned level = 0; level + 1 < mlcLevels; ++level) {
        const unsigned diff = levelToGray(level) ^
            levelToGray(level + 1);
        EXPECT_EQ(__builtin_popcount(diff), 1) << "level " << level;
    }
}

class CellModelTest : public ::testing::Test
{
  protected:
    DeviceConfig config_;
    Random rng_{42};
};

TEST_F(CellModelTest, FreshCellReadsBackItsLevel)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    for (unsigned level = 0; level < mlcLevels; ++level) {
        model.program(cell, level, 0, rng_);
        EXPECT_EQ(model.read(cell, 0), level);
        EXPECT_EQ(cell.storedLevel, level);
    }
}

TEST_F(CellModelTest, ProgramIterationsRespectModel)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    SummaryStats extremes;
    SummaryStats middles;
    for (int i = 0; i < 2000; ++i) {
        const auto o0 = model.program(cell, 0, 0, rng_);
        const auto o3 = model.program(cell, 3, 0, rng_);
        const auto o1 = model.program(cell, 1, 0, rng_);
        EXPECT_EQ(o0.iterations, 1u);
        EXPECT_EQ(o3.iterations, 1u);
        EXPECT_GE(o1.iterations, 1u);
        EXPECT_LE(o1.iterations, config_.maxProgramIterations);
        extremes.add(o0.iterations);
        middles.add(o1.iterations);
    }
    EXPECT_NEAR(middles.mean(), config_.meanIterationsIntermediate,
                0.3);
}

TEST_F(CellModelTest, DriftEventuallyFlipsIntermediateLevel)
{
    // Force a strongly drifting cell and verify the read level
    // climbs across the threshold as time advances.
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    model.program(cell, 2, 0, rng_);
    cell.logR0 = 5.05f; // Near the top of band 2 (threshold 5.5).
    cell.nu = 0.12f;    // Fast drifter.
    EXPECT_EQ(model.read(cell, secondsToTicks(1.0)), 2u);
    // After 10^4 s: logR = 5.05 + 0.12*4 = 5.53 > 5.5.
    EXPECT_EQ(model.read(cell, secondsToTicks(1e4)), 3u);

    // A twin without drift holds its level for good.
    Cell still = cell;
    still.nu = 0.0f;
    EXPECT_EQ(model.read(still, secondsToTicks(1e9)), 2u);
}

TEST_F(CellModelTest, SenseIsDeterministicBetweenWrites)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    model.program(cell, 1, 0, rng_);
    const Tick at = secondsToTicks(500.0);
    EXPECT_EQ(model.senseLogR(cell, at), model.senseLogR(cell, at));
    EXPECT_EQ(model.read(cell, at), model.read(cell, at));
}

TEST_F(CellModelTest, RewriteResetsDriftClock)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    model.program(cell, 2, 0, rng_);
    cell.logR0 = 5.05f;
    cell.nu = 0.12f;
    const Tick late = secondsToTicks(1e5);
    EXPECT_EQ(model.read(cell, late), 3u); // Drifted out.
    // Reprogram at `late`; drift age restarts from zero.
    model.program(cell, 2, late, rng_);
    cell.logR0 = 5.0f;
    cell.nu = 0.05f;
    EXPECT_EQ(model.read(cell, late + secondsToTicks(1.0)), 2u);
}

TEST_F(CellModelTest, WearOutFreezesCell)
{
    DeviceConfig config = config_;
    config.enduranceMedian = 10.0;
    config.enduranceSigmaLn = 0.01; // Nearly deterministic.
    const CellModel model(config);
    Cell cell;
    model.initialize(cell, rng_);
    unsigned writesUntilStuck = 0;
    for (unsigned i = 0; i < 100 && !cell.stuck; ++i) {
        model.program(cell, i % mlcLevels, 0, rng_);
        ++writesUntilStuck;
    }
    EXPECT_TRUE(cell.stuck);
    EXPECT_NEAR(writesUntilStuck, 10.0, 2.0);

    // Frozen: further programming is ignored.
    const std::uint8_t frozenLevel = cell.stuckLevel;
    const auto outcome = model.program(
        cell, (frozenLevel + 1) % mlcLevels, 0, rng_);
    EXPECT_EQ(outcome.iterations, 0u);
    EXPECT_EQ(model.read(cell, secondsToTicks(1e6)), frozenLevel);
}

TEST_F(CellModelTest, EnduranceScaleShortensLife)
{
    DeviceConfig config = config_;
    config.enduranceMedian = 1e6;
    config.enduranceScale = 1e-5; // Median 10 writes.
    const CellModel model(config);
    SummaryStats lives;
    for (int trial = 0; trial < 200; ++trial) {
        Cell cell;
        model.initialize(cell, rng_);
        lives.add(cell.enduranceWrites);
    }
    EXPECT_NEAR(lives.mean(), 10.0, 2.0);
}

TEST_F(CellModelTest, MarginFlagFiresBeforeError)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    model.program(cell, 2, 0, rng_);
    cell.logR0 = 5.0f;
    cell.nu = 0.1f;
    // logR(t) = 5.0 + 0.1*log10(t). Band = [5.35, 5.5).
    EXPECT_FALSE(model.marginFlagged(cell, secondsToTicks(10.0)));
    // At t = 10^4: logR = 5.4 -> inside the band, still correct.
    const Tick banded = secondsToTicks(1e4);
    EXPECT_EQ(model.read(cell, banded), 2u);
    EXPECT_TRUE(model.marginFlagged(cell, banded));
    // At t = 10^6: logR = 5.6 -> error; margin read no longer flags.
    const Tick failed = secondsToTicks(1e6);
    EXPECT_EQ(model.read(cell, failed), 3u);
    EXPECT_FALSE(model.marginFlagged(cell, failed));
}

TEST_F(CellModelTest, StuckCellsAreNeverMarginFlagged)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    model.program(cell, 1, 0, rng_);
    cell.stuck = true;
    cell.stuckLevel = 1;
    EXPECT_FALSE(model.marginFlagged(cell, secondsToTicks(1e6)));
}

TEST_F(CellModelTest, TopLevelCellNeverDriftErrors)
{
    const CellModel model(config_);
    Cell cell;
    model.initialize(cell, rng_);
    model.program(cell, 3, 0, rng_);
    EXPECT_EQ(model.read(cell, secondsToTicks(1e9)), 3u);
}

} // namespace
} // namespace pcmscrub
