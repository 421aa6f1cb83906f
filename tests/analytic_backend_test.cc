/**
 * @file
 * Tests for the analytic backend's lazy physics.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "faults/fault_injector.hh"
#include "scrub/analytic_backend.hh"

namespace pcmscrub {
namespace {

AnalyticConfig
quietConfig(std::uint64_t lines, EccScheme scheme = EccScheme::bch(8))
{
    AnalyticConfig config;
    config.lines = lines;
    config.scheme = scheme;
    config.demand.writesPerLinePerSecond = 0.0; // No demand traffic.
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 11;
    return config;
}

TEST(AnalyticBackend, GeometryFollowsScheme)
{
    const AnalyticBackend bch(quietConfig(16, EccScheme::bch(8)));
    EXPECT_EQ(bch.lineCount(), 16u);
    EXPECT_EQ(bch.cellsPerLine(), (512u + 80u) / 2);
    const AnalyticBackend secded(quietConfig(16, EccScheme::secdedX8()));
    EXPECT_EQ(secded.cellsPerLine(), (512u + 64u) / 2);
}

TEST(AnalyticBackend, FreshLinesAreClean)
{
    AnalyticBackend backend(quietConfig(64));
    for (LineIndex line = 0; line < 64; ++line) {
        EXPECT_TRUE(backend.eccCheckClean(line, secondsToTicks(1.0)));
        EXPECT_TRUE(backend.lightDetectClean(line, secondsToTicks(1.0)));
    }
    EXPECT_EQ(backend.metrics().scrubUncorrectable, 0u);
}

TEST(AnalyticBackend, DriftErrorsMatchClosedForm)
{
    // The sampled error population at age t must track
    // cells * cellErrorProb(t).
    AnalyticBackend backend(quietConfig(4000));
    const double t = 86400.0;
    const Tick at = secondsToTicks(t);
    SummaryStats errors;
    for (LineIndex line = 0; line < 4000; ++line)
        errors.add(backend.trueErrors(line, at));
    const double expected = backend.cellsPerLine() *
        backend.drift().cellErrorProb(t);
    EXPECT_NEAR(errors.mean(), expected,
                5.0 * std::sqrt(expected / 4000.0) + 0.02 * expected);
}

TEST(AnalyticBackend, ErrorsAreMonotoneBetweenWrites)
{
    AnalyticBackend backend(quietConfig(200));
    std::vector<unsigned> before;
    for (LineIndex line = 0; line < 200; ++line)
        before.push_back(backend.trueErrors(line, secondsToTicks(1e4)));
    for (LineIndex line = 0; line < 200; ++line) {
        const unsigned later =
            backend.trueErrors(line, secondsToTicks(1e6));
        EXPECT_GE(later, before[line]) << "line " << line;
    }
}

TEST(AnalyticBackend, RewriteClearsDriftErrors)
{
    AnalyticBackend backend(quietConfig(100));
    const Tick late = secondsToTicks(5e5);
    std::uint64_t dirty = 0;
    for (LineIndex line = 0; line < 100; ++line)
        dirty += backend.trueErrors(line, late) > 0;
    ASSERT_GT(dirty, 0u);
    for (LineIndex line = 0; line < 100; ++line)
        backend.scrubRewrite(line, late);
    for (LineIndex line = 0; line < 100; ++line)
        EXPECT_EQ(backend.trueErrors(line, late), 0u);
    // Shortly after a rewrite, lines stay clean.
    const Tick soon = late + secondsToTicks(10.0);
    for (LineIndex line = 0; line < 100; ++line)
        EXPECT_EQ(backend.trueErrors(line, soon), 0u);
}

TEST(AnalyticBackend, FullDecodeCountsUncorrectable)
{
    AnalyticConfig config = quietConfig(300, EccScheme::bch(1));
    AnalyticBackend backend(config);
    // At one month, expected errors per line >> 1, so BCH-1 fails.
    const Tick month = secondsToTicks(2.6e6);
    std::uint64_t ue = 0;
    for (LineIndex line = 0; line < 300; ++line) {
        const FullDecodeOutcome outcome = backend.fullDecode(line, month);
        if (outcome.uncorrectable) {
            ++ue;
            backend.repairUncorrectable(line, month);
        } else if (outcome.errors > 0) {
            backend.scrubRewrite(line, month);
        }
    }
    EXPECT_GT(ue, 250u); // Nearly every line.
    EXPECT_EQ(backend.metrics().scrubUncorrectable, ue);
    // Repairs and rewrites cleaned everything up.
    for (LineIndex line = 0; line < 300; ++line)
        EXPECT_EQ(backend.trueErrors(line, month), 0u);
}

TEST(AnalyticBackend, LightDetectMissesAreRareAndCounted)
{
    AnalyticConfig config = quietConfig(2000);
    config.detectorParity = 16;
    AnalyticBackend backend(config);
    const Tick at = secondsToTicks(2e5);
    std::uint64_t flaggedDirty = 0;
    for (LineIndex line = 0; line < 2000; ++line) {
        const bool looksClean = backend.lightDetectClean(line, at);
        const unsigned errors = backend.trueErrors(line, at);
        if (!looksClean) {
            ++flaggedDirty;
            EXPECT_GT(errors, 0u) << "false positive on " << line;
        }
    }
    ASSERT_GT(flaggedDirty, 0u);
    // Misses happen but must be far rarer than catches.
    EXPECT_LT(backend.metrics().detectorMisses, flaggedDirty / 10 + 5);
}

TEST(AnalyticBackend, DemandWritesRefreshLines)
{
    AnalyticConfig config = quietConfig(500);
    config.demand.writesPerLinePerSecond = 1e-3; // ~1 write/1000 s.
    AnalyticBackend backend(config);
    // After 10^6 s with millisecond-scale rewrite periods, lines are
    // on average only ~1000 s old: drift errors stay near zero.
    const Tick at = secondsToTicks(1e6);
    std::uint64_t totalErrors = 0;
    for (LineIndex line = 0; line < 500; ++line)
        totalErrors += backend.trueErrors(line, at);
    // Without refreshes the same age would give a large error count.
    AnalyticBackend frozen(quietConfig(500));
    std::uint64_t frozenErrors = 0;
    for (LineIndex line = 0; line < 500; ++line)
        frozenErrors += frozen.trueErrors(line, at);
    EXPECT_LT(totalErrors, frozenErrors / 5);
    EXPECT_GT(backend.metrics().demandWrites, 100000u);
}

TEST(AnalyticBackend, LastFullWriteAdvancesWithDemand)
{
    AnalyticConfig config = quietConfig(50);
    config.demand.writesPerLinePerSecond = 1e-2;
    AnalyticBackend backend(config);
    const Tick at = secondsToTicks(1e5);
    std::uint64_t refreshed = 0;
    for (LineIndex line = 0; line < 50; ++line) {
        const Tick lw = backend.lastFullWrite(line, at);
        EXPECT_LE(lw, at);
        refreshed += lw > 0;
    }
    EXPECT_EQ(refreshed, 50u); // Rate * horizon >> 1.
}

TEST(AnalyticBackend, WearCreatesStuckCellsUnderScaledEndurance)
{
    AnalyticConfig config = quietConfig(100);
    config.device.enduranceMedian = 1e3; // Hugely scaled down.
    config.device.enduranceSigmaLn = 0.3;
    AnalyticBackend backend(config);
    // Hammer rewrites.
    Tick now = secondsToTicks(1.0);
    for (int round = 0; round < 2000; ++round) {
        for (LineIndex line = 0; line < 100; ++line)
            backend.scrubRewrite(line, now);
        now += secondsToTicks(1.0);
    }
    EXPECT_GT(backend.metrics().cellsWornOut, 0u);
    std::uint64_t stuck = 0;
    for (LineIndex line = 0; line < 100; ++line)
        stuck += backend.stuckCells(line);
    EXPECT_EQ(stuck, backend.metrics().cellsWornOut);
    EXPECT_NEAR(backend.lineWrites(7), 2000.0, 1e-9);
}

TEST(AnalyticBackend, EnergyChargedOncePerVisit)
{
    AnalyticBackend backend(quietConfig(10));
    const Tick at = secondsToTicks(100.0);
    backend.lightDetectClean(0, at);
    const double afterFirst =
        backend.metrics().energy.get(EnergyCategory::ArrayRead);
    backend.eccCheckClean(0, at); // Same visit: no second array read.
    EXPECT_DOUBLE_EQ(
        backend.metrics().energy.get(EnergyCategory::ArrayRead),
        afterFirst);
    backend.eccCheckClean(0, at + 1); // New visit: charged again.
    EXPECT_GT(backend.metrics().energy.get(EnergyCategory::ArrayRead),
              afterFirst);
}

TEST(AnalyticBackend, MarginScanFindsBandedPopulation)
{
    AnalyticBackend backend(quietConfig(1000));
    // Pick an age where the margin band is well populated.
    const double t = 3600.0;
    const Tick at = secondsToTicks(t);
    std::uint64_t flagged = 0;
    for (LineIndex line = 0; line < 1000; ++line)
        flagged += backend.marginScan(line, at);
    const double expected = 1000.0 * backend.cellsPerLine() *
        backend.drift().cellMarginFlagProb(t);
    ASSERT_GT(expected, 50.0);
    EXPECT_NEAR(static_cast<double>(flagged), expected,
                6.0 * std::sqrt(expected) + 0.05 * expected);
}

TEST(AnalyticBackend, PiggybackRefreshesHotReadLines)
{
    // With read piggybacking, lines read frequently never keep
    // many errors for long even with no scrub at all.
    AnalyticConfig config = quietConfig(400);
    config.demand.readsPerLinePerSecond = 1e-3; // ~17 min period.
    config.demandReadPiggyback = true;
    config.piggybackRewriteThreshold = 2;
    AnalyticBackend piggy(config);

    AnalyticConfig plainConfig = quietConfig(400);
    AnalyticBackend plain(plainConfig);

    const Tick at = secondsToTicks(5e5);
    std::uint64_t piggyErrors = 0;
    std::uint64_t plainErrors = 0;
    for (LineIndex line = 0; line < 400; ++line) {
        piggyErrors += piggy.trueErrors(line, at);
        plainErrors += plain.trueErrors(line, at);
    }
    ASSERT_GT(plainErrors, 200u);
    EXPECT_LT(piggyErrors, plainErrors / 3);
    EXPECT_GT(piggy.metrics().piggybackRewrites, 0u);
    EXPECT_EQ(piggy.metrics().piggybackRewrites,
              piggy.metrics().scrubRewrites);
}

TEST(AnalyticBackend, PiggybackOffByDefault)
{
    AnalyticConfig config = quietConfig(100);
    config.demand.readsPerLinePerSecond = 1e-3;
    AnalyticBackend backend(config);
    for (LineIndex line = 0; line < 100; ++line)
        backend.trueErrors(line, secondsToTicks(5e5));
    EXPECT_EQ(backend.metrics().piggybackRewrites, 0u);
}

TEST(AnalyticBackend, PiggybackRespectsThreshold)
{
    // A sky-high threshold means reads never trigger refreshes.
    AnalyticConfig config = quietConfig(200);
    config.demand.readsPerLinePerSecond = 1e-3;
    config.demandReadPiggyback = true;
    config.piggybackRewriteThreshold = 1000;
    AnalyticBackend backend(config);
    for (LineIndex line = 0; line < 200; ++line)
        backend.trueErrors(line, secondsToTicks(5e5));
    EXPECT_EQ(backend.metrics().piggybackRewrites, 0u);
}

std::vector<std::uint8_t>
snapshot(const AnalyticBackend &backend)
{
    SnapshotSink sink;
    backend.checkpointSave(sink);
    return sink.takeBytes();
}

void
restore(AnalyticBackend &backend, const std::vector<std::uint8_t> &bytes)
{
    SnapshotSource source(bytes.data(), bytes.size(), "test snapshot");
    backend.checkpointLoad(source);
    source.finish();
}

/** Grow every line's drift at `now`, first line to last. */
void
visitAll(AnalyticBackend &backend, Tick now)
{
    for (LineIndex line = 0; line < backend.lineCount(); ++line)
        backend.trueErrors(line, now);
}

/**
 * The weak-cell memo is derived state: a backend that already holds
 * memos (a different seed, so different weak cells, visited at the
 * very instant the restored run visits next) continues from a loaded
 * checkpoint exactly as the run that saved it and as a fresh backend.
 */
TEST(AnalyticBackend, CheckpointLoadClearsWeakCellMemo)
{
    AnalyticConfig config = quietConfig(16);
    config.shards = 1;
    const Tick hour = secondsToTicks(3600.0);
    const auto continueRun = [&](AnalyticBackend &backend) {
        visitAll(backend, 2 * hour);
        visitAll(backend, 30 * hour);
        return snapshot(backend);
    };

    AnalyticBackend saved(config);
    visitAll(saved, hour);
    const std::vector<std::uint8_t> checkpoint = snapshot(saved);
    const std::vector<std::uint8_t> want = continueRun(saved);

    AnalyticConfig otherSeed = config;
    otherSeed.seed = config.seed + 1;
    AnalyticBackend used(otherSeed);
    // Last to visit: line 0 at 2 h, the restored run's first visit.
    for (LineIndex line = used.lineCount(); line-- > 0;)
        used.trueErrors(line, 2 * hour);
    restore(used, checkpoint);
    EXPECT_EQ(continueRun(used), want);

    AnalyticBackend fresh(config);
    restore(fresh, checkpoint);
    EXPECT_EQ(continueRun(fresh), want);
}

/**
 * A ladder PPR remap (moveToFreshRow: new weak cells) at the tick a
 * visit already grew the line's drift: the run continues exactly as a
 * fresh backend restored right after the remap.
 */
TEST(AnalyticBackend, FreshRowAtVisitTickMatchesRestoredRun)
{
    AnalyticConfig config = quietConfig(4, EccScheme::bch(4));
    config.shards = 1;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 0;
    config.degradation.ecpRepair = false;
    config.degradation.pprSpareRows = 4;
    config.degradation.pprUeThreshold = 1;
    FaultCampaignConfig lethal;
    lethal.disturbFlipsPerRead = 20.0; // Far beyond BCH t=4.
    lethal.seed = 5;
    FaultInjector injector(lethal);

    const Tick visit = secondsToTicks(86400.0);
    AnalyticBackend remapped(config);
    remapped.setFaultInjector(&injector);
    ASSERT_EQ(remapped.fullDecode(0, visit).handledBy,
              DegradationStage::PprRemap);
    remapped.setFaultInjector(nullptr);
    const std::vector<std::uint8_t> checkpoint = snapshot(remapped);

    const auto continueRun = [&](AnalyticBackend &backend) {
        backend.lightDetectClean(0, visit);
        backend.fullDecode(0, visit);
        for (const double days : {1.5, 3.0, 9.0}) {
            const Tick now = secondsToTicks(86400.0 * days);
            visitAll(backend, now);
            backend.fullDecode(0, now);
        }
        return snapshot(backend);
    };
    const std::vector<std::uint8_t> want = continueRun(remapped);

    AnalyticBackend fresh(config);
    restore(fresh, checkpoint);
    EXPECT_EQ(continueRun(fresh), want);
}

} // namespace
} // namespace pcmscrub
