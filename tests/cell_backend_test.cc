/**
 * @file
 * Tests for the cell-accurate backend with real codecs.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "scrub/cell_backend.hh"

namespace pcmscrub {
namespace {

CellBackendConfig
smallConfig(EccScheme scheme = EccScheme::bch(4))
{
    CellBackendConfig config;
    config.lines = 64;
    config.scheme = scheme;
    config.seed = 3;
    return config;
}

TEST(CellBackend, GeometryMatchesCodec)
{
    const CellBackend bch(smallConfig(EccScheme::bch(8)));
    EXPECT_EQ(bch.lineCount(), 64u);
    EXPECT_EQ(bch.code().codewordBits(), 592u);
    EXPECT_EQ(bch.cellsPerLine(), 296u);
    const CellBackend secded(smallConfig(EccScheme::secdedX8()));
    EXPECT_EQ(secded.code().codewordBits(), 576u);

    // The geometry is the array's, not line 0's: a line dropped to
    // SLC uses one cell per bit.
    CellBackend degraded(smallConfig(EccScheme::bch(8)));
    Random rng(1);
    degraded.array().line(0).setSlcMode(degraded.array().model(), rng);
    ASSERT_EQ(degraded.array().line(0).cellCount(), 592u);
    EXPECT_EQ(degraded.cellsPerLine(), 296u);
}

TEST(CellBackend, FreshLinesPassAllChecks)
{
    CellBackend backend(smallConfig());
    const Tick at = secondsToTicks(0.5);
    for (LineIndex line = 0; line < backend.lineCount(); ++line) {
        EXPECT_TRUE(backend.eccCheckClean(line, at));
        EXPECT_TRUE(backend.lightDetectClean(line, at));
        EXPECT_EQ(backend.trueErrors(line, at), 0u);
        const FullDecodeOutcome outcome = backend.fullDecode(line, at);
        EXPECT_FALSE(outcome.uncorrectable);
        EXPECT_EQ(outcome.errors, 0u);
    }
}

TEST(CellBackend, AgedLinesDevelopErrorsDecoderFinds)
{
    CellBackendConfig config = smallConfig(EccScheme::bch(8));
    config.lines = 256;
    CellBackend backend(config);
    const Tick month = secondsToTicks(2.6e6);
    std::uint64_t trueTotal = 0;
    std::uint64_t decodedTotal = 0;
    std::uint64_t ue = 0;
    for (LineIndex line = 0; line < backend.lineCount(); ++line) {
        trueTotal += backend.trueErrors(line, month);
        const FullDecodeOutcome outcome =
            backend.fullDecode(line, month);
        if (outcome.uncorrectable) {
            ++ue;
            backend.repairUncorrectable(line, month);
        } else {
            decodedTotal += outcome.errors;
        }
    }
    ASSERT_GT(trueTotal, 0u);
    // Correctable lines: decoder reports exactly the true counts.
    EXPECT_EQ(backend.metrics().scrubUncorrectable, ue);
    EXPECT_GT(decodedTotal, 0u);
}

TEST(CellBackend, ScrubRewriteRestoresCleanliness)
{
    CellBackendConfig config = smallConfig(EccScheme::bch(8));
    config.lines = 128;
    CellBackend backend(config);
    const Tick month = secondsToTicks(2.6e6);
    std::uint64_t dirty = 0;
    for (LineIndex line = 0; line < backend.lineCount(); ++line) {
        if (backend.trueErrors(line, month) > 0) {
            ++dirty;
            backend.scrubRewrite(line, month);
            EXPECT_EQ(backend.trueErrors(line, month), 0u);
        }
    }
    ASSERT_GT(dirty, 0u);
    EXPECT_EQ(backend.metrics().scrubRewrites, dirty);
    EXPECT_GT(backend.metrics().correctedErrors, 0u);
}

TEST(CellBackend, DetectorAgreesWithGroundTruth)
{
    CellBackendConfig config = smallConfig(EccScheme::bch(8));
    config.lines = 256;
    config.detectorParity = 16;
    // From barely aged (every line clean) to a month of drift.
    for (const double seconds : {0.5, 3600.0, 5e5, 2.6e6}) {
        CellBackend backend(config);
        const Tick at = secondsToTicks(seconds);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const bool looksClean = backend.lightDetectClean(line, at);
            const unsigned errors = backend.trueErrors(line, at);
            if (errors == 0) {
                EXPECT_TRUE(looksClean)
                    << "line " << line << " at " << seconds << " s";
            }
            // Dirty lines may rarely alias; the counter tracks those.
        }
        EXPECT_LE(backend.metrics().detectorMisses, 10u)
            << "at " << seconds << " s";
    }
}

TEST(CellBackend, DemandWriteRefreshesAndRerandomises)
{
    CellBackend backend(smallConfig());
    const Tick month = secondsToTicks(2.6e6);
    const unsigned before = backend.trueErrors(5, month);
    backend.demandWrite(5, month);
    EXPECT_EQ(backend.trueErrors(5, month), 0u);
    (void)before;
    EXPECT_EQ(backend.metrics().demandWrites, 1u);
    // Detect word was refreshed along with the data.
    EXPECT_TRUE(backend.lightDetectClean(5, month + 1));
}

TEST(CellBackend, RepairRemapsStuckCells)
{
    CellBackendConfig config = smallConfig();
    config.device.enduranceMedian = 5.0; // Cells die almost at once.
    config.device.enduranceSigmaLn = 0.2;
    CellBackend backend(config);
    const LineIndex victim = 0;
    Tick now = secondsToTicks(1.0);
    for (int i = 0; i < 20; ++i) {
        backend.demandWrite(victim, now);
        now += secondsToTicks(1.0);
    }
    ASSERT_GT(backend.metrics().cellsWornOut, 0u);
    // Some stuck cells likely conflict now; repair must clear them.
    backend.repairUncorrectable(victim, now);
    EXPECT_EQ(backend.trueErrors(victim, now), 0u);
}

TEST(CellBackend, EnergyChargedOncePerVisit)
{
    CellBackend backend(smallConfig());
    const Tick at = secondsToTicks(10.0);
    backend.lightDetectClean(0, at);
    const double once =
        backend.metrics().energy.get(EnergyCategory::ArrayRead);
    backend.fullDecode(0, at);
    EXPECT_DOUBLE_EQ(
        backend.metrics().energy.get(EnergyCategory::ArrayRead), once);
    backend.fullDecode(0, at + 5);
    EXPECT_GT(backend.metrics().energy.get(EnergyCategory::ArrayRead),
              once);
}

TEST(CellBackend, ReprogramInvalidatesVisitReadCharge)
{
    // Regression: the (line, tick) read-charge dedup must not
    // survive a reprogram — re-reading a just-rewritten line at the
    // same tick is a fresh sensing pass and costs a fresh array read.
    CellBackend backend(smallConfig());
    const Tick at = secondsToTicks(10.0);
    backend.lightDetectClean(0, at);
    const double once =
        backend.metrics().energy.get(EnergyCategory::ArrayRead);
    ASSERT_GT(once, 0.0);
    backend.scrubRewrite(0, at);
    backend.lightDetectClean(0, at);
    EXPECT_DOUBLE_EQ(
        backend.metrics().energy.get(EnergyCategory::ArrayRead),
        once + once);
}

TEST(CellBackend, MidVisitReprogramRefreshesSensedWord)
{
    // A demand write replaces the payload mid-visit; the gates at the
    // same tick must sense the new word, not a stale visit buffer.
    CellBackend backend(smallConfig());
    const Tick at = secondsToTicks(10.0);
    EXPECT_TRUE(backend.lightDetectClean(3, at));
    backend.demandWrite(3, at);
    EXPECT_TRUE(backend.lightDetectClean(3, at));
    EXPECT_TRUE(backend.eccCheckClean(3, at));
    EXPECT_EQ(backend.trueErrors(3, at), 0u);
}

TEST(CellBackend, MarginScanSeesPreFailurePopulation)
{
    CellBackendConfig config = smallConfig(EccScheme::bch(8));
    config.lines = 128;
    CellBackend backend(config);
    const Tick at = secondsToTicks(3600.0);
    std::uint64_t flagged = 0;
    for (LineIndex line = 0; line < backend.lineCount(); ++line)
        flagged += backend.marginScan(line, at);
    EXPECT_GT(flagged, 0u);
}

} // namespace
} // namespace pcmscrub
