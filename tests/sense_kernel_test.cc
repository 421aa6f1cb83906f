/**
 * @file
 * The exactness contract of the batched SoA kernels: senseCodeword,
 * marginScanCount, and programCodeword must be bit-identical to a
 * per-cell loop over CellModel — same doubles, same RNG draws — for
 * every cell population the simulator can produce: fresh lines,
 * drifted lines, stuck cells, differential writes that leave cells
 * on mixed drift clocks, SLC-mode lines, and shifted read
 * thresholds.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "pcm/cell.hh"
#include "pcm/kernels.hh"
#include "pcm/line.hh"

namespace pcmscrub {
namespace {

constexpr std::size_t kCodewordBits = 592;

/** Target level of cell `index`, mirroring Line::targetLevel. */
unsigned
referenceLevel(const BitVector &codeword, unsigned index, bool slc)
{
    if (slc)
        return codeword.get(index) ? mlcLevels - 1 : 0;
    const std::size_t bit = static_cast<std::size_t>(index) *
        bitsPerCell;
    std::uint8_t gray = codeword.get(bit) ? 1 : 0;
    if (bit + 1 < codeword.size() && codeword.get(bit + 1))
        gray |= 2;
    return grayToLevel(gray);
}

/** Per-cell CellModel::read loop the sense kernel must reproduce. */
BitVector
referenceSense(const Line &line, const CellModel &model, Tick now,
               double shift)
{
    BitVector word(line.codewordBits());
    if (line.slcMode()) {
        for (unsigned i = 0; i < line.codewordBits(); ++i) {
            word.set(i, model.read(line.cellValue(i), now, shift) >=
                            mlcLevels / 2);
        }
        return word;
    }
    for (unsigned i = 0; i < line.cellCount(); ++i) {
        const std::uint8_t gray =
            levelToGray(model.read(line.cellValue(i), now, shift));
        const std::size_t bit = static_cast<std::size_t>(i) *
            bitsPerCell;
        word.set(bit, gray & 1);
        if (bit + 1 < word.size())
            word.set(bit + 1, (gray >> 1) & 1);
    }
    return word;
}

/** Per-cell CellModel::marginFlagged loop. */
unsigned
referenceMarginScan(const Line &line, const CellModel &model, Tick now)
{
    unsigned flagged = 0;
    for (unsigned i = 0; i < line.cellCount(); ++i)
        flagged += model.marginFlagged(line.cellValue(i), now);
    return flagged;
}

/**
 * Per-cell program loop the batched kernel must reproduce, including
 * the RNG draw order (skipped cells draw nothing).
 */
LineProgramStats
referenceProgram(Line &line, const BitVector &codeword, Tick now,
                 const CellModel &model, Random &rng, bool differential)
{
    LineProgramStats stats;
    for (unsigned i = 0; i < line.cellCount(); ++i) {
        const unsigned level =
            referenceLevel(codeword, i, line.slcMode());
        Cell cell = line.cellValue(i);
        if (cell.stuck)
            continue;
        if (differential && model.read(cell, now) == level)
            continue;
        const ProgramOutcome outcome =
            model.program(cell, level, now, rng);
        line.storeCell(i, cell);
        if (outcome.iterations > 0) {
            ++stats.cellsProgrammed;
            stats.totalIterations += outcome.iterations;
        }
        stats.cellsWornOut += outcome.wornOut;
    }
    return stats;
}

void
expectCellsEqual(const Line &a, const Line &b)
{
    ASSERT_EQ(a.cellCount(), b.cellCount());
    for (unsigned i = 0; i < a.cellCount(); ++i) {
        const Cell ca = a.cellValue(i);
        const Cell cb = b.cellValue(i);
        EXPECT_EQ(ca.logR0, cb.logR0) << "cell " << i;
        EXPECT_EQ(ca.nu, cb.nu) << "cell " << i;
        EXPECT_EQ(ca.nuSpeed, cb.nuSpeed) << "cell " << i;
        EXPECT_EQ(ca.enduranceWrites, cb.enduranceWrites)
            << "cell " << i;
        EXPECT_EQ(ca.writes, cb.writes) << "cell " << i;
        EXPECT_EQ(ca.storedLevel, cb.storedLevel) << "cell " << i;
        EXPECT_EQ(ca.stuck, cb.stuck) << "cell " << i;
        EXPECT_EQ(ca.stuckLevel, cb.stuckLevel) << "cell " << i;
        EXPECT_EQ(ca.writeTick, cb.writeTick) << "cell " << i;
    }
}

/** A written line with some stuck cells, derived from `seed`. */
Line
makeLine(const CellModel &model, std::uint64_t seed, bool slc,
         double stuckFraction, bool differentialSecondWrite)
{
    Random rng(seed);
    Line line(kCodewordBits);
    line.initialize(model, rng);
    if (slc)
        line.setSlcMode(model, rng);
    for (unsigned i = 0; i < line.cellCount(); ++i) {
        if (!rng.bernoulli(stuckFraction))
            continue;
        line.freezeCell(i, static_cast<unsigned>(
                               rng.uniformInt(mlcLevels)));
    }
    BitVector word(kCodewordBits);
    word.randomize(rng);
    line.writeCodeword(word, secondsToTicks(1.0), model, rng);
    if (differentialSecondWrite) {
        // Flip a few cells' worth of bits and rewrite differentially
        // much later: the untouched cells stay on the old drift
        // clock, so the sense kernel's hoisted log10 sees mixed
        // program ticks.
        BitVector second = word;
        for (unsigned f = 0; f < 40; ++f)
            second.flip(rng.uniformInt(second.size()));
        line.writeCodeword(second, secondsToTicks(7200.0), model, rng,
                           true);
    }
    return line;
}

TEST(SenseKernel, MatchesPerCellReadAcrossPopulations)
{
    const CellModel model{DeviceConfig{}};
    const double shifts[] = {0.0, 0.15};
    const double ages[] = {7201.0, 86400.0, 3e6};
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        for (const bool slc : {false, true}) {
            for (const bool differential : {false, true}) {
                if (slc && differential)
                    continue; // SLC lines are rewritten in full.
                const Line line = makeLine(model, seed, slc, 0.02,
                                           differential);
                for (const double age : ages) {
                    const Tick now = secondsToTicks(age);
                    for (const double shift : shifts) {
                        SCOPED_TRACE("seed " + std::to_string(seed) +
                                     (slc ? " slc" : " mlc") +
                                     " age " + std::to_string(age) +
                                     " shift " + std::to_string(shift));
                        EXPECT_EQ(
                            line.readCodeword(now, model, shift),
                            referenceSense(line, model, now, shift));
                    }
                }
            }
        }
    }
}

TEST(SenseKernel, MarginScanMatchesPerCellLoop)
{
    const CellModel model{DeviceConfig{}};
    for (const std::uint64_t seed : {4ull, 5ull, 6ull}) {
        for (const bool differential : {false, true}) {
            const Line line = makeLine(model, seed, false, 0.05,
                                       differential);
            for (const double age : {7200.5, 90000.0, 5e6}) {
                const Tick now = secondsToTicks(age);
                SCOPED_TRACE("seed " + std::to_string(seed) + " age " +
                             std::to_string(age));
                EXPECT_EQ(line.marginScanCount(now, model),
                          referenceMarginScan(line, model, now));
            }
        }
    }
}

TEST(ProgramKernel, MatchesPerCellLoopIncludingDrawOrder)
{
    const CellModel model{DeviceConfig{}};
    for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
        for (const bool slc : {false, true}) {
            for (const bool differential : {false, true}) {
                SCOPED_TRACE("seed " + std::to_string(seed) +
                             (slc ? " slc" : " mlc") +
                             (differential ? " differential" : " full"));
                // Two identically-seeded lines: one takes the batched
                // kernel (writeCodeword), the other the per-cell
                // reference loop. Any divergence in math or draw
                // order shows up as a field mismatch.
                Line kernel = makeLine(model, seed, slc, 0.03, false);
                Line reference = makeLine(model, seed, slc, 0.03,
                                          false);
                expectCellsEqual(kernel, reference);

                Random rngA(seed * 97 + 1);
                Random rngB(seed * 97 + 1);
                BitVector next(kCodewordBits);
                next.randomize(rngA);
                next.randomize(rngB); // keep both streams aligned
                const Tick now = secondsToTicks(9000.0);
                const LineProgramStats a = kernel.writeCodeword(
                    next, now, model, rngA, differential);
                const LineProgramStats b = referenceProgram(
                    reference, next, now, model, rngB, differential);
                EXPECT_EQ(a.cellsProgrammed, b.cellsProgrammed);
                EXPECT_EQ(a.totalIterations, b.totalIterations);
                EXPECT_EQ(a.cellsWornOut, b.cellsWornOut);
                expectCellsEqual(kernel, reference);
            }
        }
    }
}

} // namespace
} // namespace pcmscrub
