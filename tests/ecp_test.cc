/**
 * @file
 * Tests for Error-Correcting Pointers: the store itself, and its
 * integration with the cell-accurate and analytic backends.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "ecc/ecp.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"

namespace pcmscrub {
namespace {

TEST(EcpStore, AssignAndApply)
{
    EcpStore store(64, 4);
    EXPECT_EQ(store.capacity(), 4u);
    EXPECT_EQ(store.used(), 0u);
    EXPECT_TRUE(store.assign(3, true));
    EXPECT_TRUE(store.assign(60, false));
    EXPECT_EQ(store.used(), 2u);

    BitVector word(64);
    word.set(60, true); // Stuck-at-1 bit the ECP must force to 0.
    store.apply(word);
    EXPECT_TRUE(word.get(3));
    EXPECT_FALSE(word.get(60));
}

TEST(EcpStore, ReassignUpdatesWithoutConsuming)
{
    EcpStore store(32, 2);
    EXPECT_TRUE(store.assign(5, true));
    EXPECT_TRUE(store.assign(5, false)); // New data, same position.
    EXPECT_EQ(store.used(), 1u);
    BitVector word(32);
    word.set(5, true);
    store.apply(word);
    EXPECT_FALSE(word.get(5));
}

TEST(EcpStore, CapacityExhaustion)
{
    EcpStore store(32, 2);
    EXPECT_TRUE(store.assign(1, true));
    EXPECT_TRUE(store.assign(2, true));
    EXPECT_TRUE(store.full());
    EXPECT_FALSE(store.assign(3, true));
    // The known positions keep working.
    EXPECT_TRUE(store.assign(1, false));
}

TEST(EcpStore, ClearForgetsEverything)
{
    EcpStore store(32, 2);
    store.assign(1, true);
    store.clear();
    EXPECT_EQ(store.used(), 0u);
    BitVector word(32);
    store.apply(word);
    EXPECT_EQ(word.popcount(), 0u);
}

TEST(EcpStore, OverheadMatchesDesign)
{
    // 512-bit space: 9-bit pointers + 1 replacement bit per entry
    // plus a full flag. ECP-6 = 61 bits, as in the ISCA'10 paper.
    EXPECT_EQ(EcpStore(512, 6).overheadBits(), 61u);
    EXPECT_EQ(EcpStore(512, 0).overheadBits(), 1u);
}

TEST(EcpStoreDeath, OutOfRangePositionPanics)
{
    EcpStore store(16, 2);
    EXPECT_DEATH(store.assign(16, true), "out of range");
}

TEST(EcpCellBackend, StuckCellsPatchedOnRead)
{
    CellBackendConfig config;
    config.lines = 8;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 8;
    config.seed = 5;
    CellBackend backend(config);

    // Freeze three cells of line 0 at hostile levels.
    Line &line = backend.array().line(0);
    for (unsigned i = 0; i < 3; ++i) {
        const unsigned c = 10 + i;
        line.freezeCell(c, (line.cellValue(c).storedLevel + 2) % mlcLevels);
    }
    // Re-program so write-verify discovers the stuck cells.
    backend.demandWrite(0, secondsToTicks(1.0));
    EXPECT_GT(backend.ecpUsed(0), 0u);
    EXPECT_EQ(backend.trueErrors(0, secondsToTicks(1.0)), 0u);
    EXPECT_TRUE(backend.eccCheckClean(0, secondsToTicks(1.0)));
}

TEST(EcpCellBackend, ExhaustedStoreLeavesResidualErrors)
{
    CellBackendConfig config;
    config.lines = 4;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 2; // Room for at most one bad cell's bits.
    config.seed = 6;
    CellBackend backend(config);

    Line &line = backend.array().line(0);
    unsigned frozen = 0;
    for (unsigned i = 0; i < line.cellCount() && frozen < 6; ++i) {
        line.freezeCell(i, (line.cellValue(i).storedLevel + 2) % mlcLevels);
        ++frozen;
    }
    backend.demandWrite(0, secondsToTicks(1.0));
    EXPECT_EQ(backend.ecpUsed(0), 2u);
    EXPECT_GT(backend.trueErrors(0, secondsToTicks(1.0)), 0u);
}

TEST(EcpCellBackend, WithoutEcpSameFaultsStayVisible)
{
    for (const unsigned entries : {0u, 16u}) {
        CellBackendConfig config;
        config.lines = 4;
        config.scheme = EccScheme::bch(4);
        config.ecpEntries = entries;
        config.seed = 7;
        CellBackend backend(config);
        Line &line = backend.array().line(0);
        for (unsigned i = 0; i < 4; ++i) {
            const unsigned c = 20 + i;
            line.freezeCell(
                c, (line.cellValue(c).storedLevel + 2) % mlcLevels);
        }
        backend.demandWrite(0, secondsToTicks(1.0));
        const unsigned errors =
            backend.trueErrors(0, secondsToTicks(1.0));
        if (entries == 0) {
            EXPECT_GT(errors, 0u);
        } else {
            EXPECT_EQ(errors, 0u);
        }
    }
}

TEST(EcpAnalytic, EcpAbsorbsStuckErrors)
{
    // Heavily worn device with demand traffic: with ECP the stuck
    // population stops producing errors until the per-line budget
    // is exceeded.
    AnalyticConfig config;
    config.lines = 256;
    config.scheme = EccScheme::bch(8);
    // A broad endurance distribution keeps the typical line's stuck
    // population inside ECP's budget while a Poisson write spread
    // across lines cannot blow past it.
    config.device.enduranceMedian = 300.0;
    config.device.enduranceSigmaLn = 0.5;
    // Disable drift so the comparison isolates the stuck-cell path.
    config.device.driftMu = {0.0, 0.0, 0.0, 0.0};
    config.device.driftSpeedSigmaLn = 0.0;
    config.demand.writesPerLinePerSecond = 1e-3;
    config.seed = 13;

    config.ecpEntries = 0;
    AnalyticBackend bare(config);
    config.ecpEntries = 16;
    AnalyticBackend patched(config);

    // ~100 writes/line: a few percent of cells are worn out, so the
    // typical line's stuck population fits inside ECP-16's budget
    // of eight cells.
    const Tick at = secondsToTicks(1e5);
    std::uint64_t bareErrors = 0;
    std::uint64_t patchedErrors = 0;
    for (LineIndex line = 0; line < 256; ++line) {
        bareErrors += bare.trueErrors(line, at);
        patchedErrors += patched.trueErrors(line, at);
    }
    ASSERT_GT(bareErrors, 300u);
    EXPECT_LT(patchedErrors, bareErrors / 3);
}

} // namespace
} // namespace pcmscrub
