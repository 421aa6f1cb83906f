/**
 * @file
 * Tests for the line abstraction: Gray-coded storage, differential
 * vs. full writes, drift-clock semantics, and ground-truth errors.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "pcm/line.hh"

namespace pcmscrub {
namespace {

class LineTest : public ::testing::Test
{
  protected:
    LineTest() : model_(config_), rng_(7) {}

    DeviceConfig config_;
    CellModel model_;
    Random rng_;
};

TEST_F(LineTest, GeometryRoundsUpToCells)
{
    EXPECT_EQ(Line(512).cellCount(), 256u);
    EXPECT_EQ(Line(576).cellCount(), 288u);
    EXPECT_EQ(Line(593).cellCount(), 297u); // Odd bit count pads.
}

TEST_F(LineTest, WriteThenImmediateReadIsExact)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    const LineProgramStats stats =
        line.writeCodeword(word, 0, model_, rng_);
    EXPECT_EQ(stats.cellsProgrammed, 256u);
    EXPECT_GE(stats.totalIterations, 256u);
    EXPECT_EQ(line.readCodeword(0, model_), word);
    EXPECT_EQ(line.trueBitErrors(0, model_), 0u);
    EXPECT_EQ(line.lineWrites(), 1u);
}

TEST_F(LineTest, OddCodewordLengthRoundTrips)
{
    Line line(593);
    line.initialize(model_, rng_);
    BitVector word(593);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    EXPECT_EQ(line.readCodeword(0, model_), word);
}

TEST_F(LineTest, DriftCreatesSingleBitErrorsUnderGrayCoding)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);

    // Freeze every cell's drift, then force exactly one cell across
    // its threshold — the single-bit expectation must not depend on
    // whether some naturally fast cell also crosses by `later`.
    for (unsigned i = 0; i < line.cellCount(); ++i) {
        Cell cell = line.cellValue(i);
        cell.nu = 0.0f;
        line.storeCell(i, cell);
    }
    for (unsigned i = 0; i < line.cellCount(); ++i) {
        Cell cell = line.cellValue(i);
        if (cell.storedLevel == 2) {
            cell.logR0 = 5.4f;
            cell.nu = 0.1f;
            line.storeCell(i, cell);
            break;
        }
    }
    const Tick later = secondsToTicks(1e4); // logR = 5.8 > 5.5.
    EXPECT_EQ(line.trueBitErrors(later, model_), 1u);
}

TEST_F(LineTest, FullRewriteResetsEveryDriftClock)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    const Tick mid = secondsToTicks(1000.0);
    line.writeCodeword(word, mid, model_, rng_, /*differential=*/false);
    for (unsigned i = 0; i < line.cellCount(); ++i)
        EXPECT_EQ(line.cellValue(i).writeTick, mid) << "cell " << i;
    EXPECT_EQ(line.lastWriteTick(), mid);
}

TEST_F(LineTest, DifferentialRewriteSkipsMatchingCells)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    const Tick mid = secondsToTicks(100.0);
    // Same data, differential: nothing has drifted yet, so no cell
    // should be reprogrammed and every drift clock stays at 0.
    const LineProgramStats stats =
        line.writeCodeword(word, mid, model_, rng_,
                           /*differential=*/true);
    EXPECT_EQ(stats.cellsProgrammed, 0u);
    for (unsigned i = 0; i < line.cellCount(); ++i)
        EXPECT_EQ(line.cellValue(i).writeTick, 0u) << "cell " << i;
}

TEST_F(LineTest, DifferentialRewriteReprogramsDriftedCells)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    // Drift one cell out of its band.
    unsigned victim = 0;
    for (unsigned i = 0; i < line.cellCount(); ++i) {
        Cell cell = line.cellValue(i);
        if (cell.storedLevel == 2) {
            cell.logR0 = 5.45f;
            cell.nu = 0.1f;
            line.storeCell(i, cell);
            victim = i;
            break;
        }
    }
    const Tick later = secondsToTicks(1e4);
    ASSERT_GE(line.trueBitErrors(later, model_), 1u);
    const LineProgramStats stats =
        line.writeCodeword(word, later, model_, rng_,
                           /*differential=*/true);
    EXPECT_GE(stats.cellsProgrammed, 1u);
    EXPECT_EQ(line.cellValue(victim).writeTick, later);
    EXPECT_EQ(line.trueBitErrors(later, model_), 0u);
}

TEST_F(LineTest, ChangedDataDifferentialTouchesOnlyChangedCells)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    BitVector other = word;
    other.flip(10); // Changes cell 5's target level.
    other.flip(200);
    const LineProgramStats stats =
        line.writeCodeword(other, secondsToTicks(1.0), model_, rng_,
                           /*differential=*/true);
    EXPECT_EQ(stats.cellsProgrammed, 2u);
    EXPECT_EQ(line.readCodeword(secondsToTicks(1.0), model_), other);
}

TEST_F(LineTest, StuckCellProducesPersistentErrors)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    // Freeze one cell at a level that conflicts with new data.
    line.freezeCell(0, (line.cellValue(0).storedLevel + 2) % mlcLevels);
    EXPECT_EQ(line.stuckCellCount(), 1u);
    EXPECT_GE(line.trueBitErrors(0, model_), 1u);
    // Rewriting cannot fix a stuck cell.
    line.writeCodeword(word, secondsToTicks(10.0), model_, rng_);
    EXPECT_GE(line.trueBitErrors(secondsToTicks(10.0), model_), 1u);
}

TEST_F(LineTest, MarginScanCountsBandedCells)
{
    Line line(512);
    line.initialize(model_, rng_);
    BitVector word(512);
    word.randomize(rng_);
    line.writeCodeword(word, 0, model_, rng_);
    // Park three cells inside their guard band.
    unsigned placed = 0;
    for (unsigned i = 0; i < line.cellCount() && placed < 3; ++i) {
        Cell cell = line.cellValue(i);
        if (cell.storedLevel == 1) {
            cell.logR0 = 4.4f; // Band [4.35, 4.5).
            cell.nu = 0.0f;
            line.storeCell(i, cell);
            ++placed;
        }
    }
    ASSERT_EQ(placed, 3u);
    EXPECT_GE(line.marginScanCount(secondsToTicks(2.0), model_), 3u);
}

TEST(LineDeath, WrongCodewordLengthPanics)
{
    DeviceConfig config;
    const CellModel model(config);
    Random rng(1);
    Line line(512);
    line.initialize(model, rng);
    BitVector word(100);
    EXPECT_DEATH(line.writeCodeword(word, 0, model, rng),
                 "codeword of 100 bits");
}

} // namespace
} // namespace pcmscrub
