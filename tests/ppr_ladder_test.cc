/**
 * @file
 * The extended degradation ladder with the PPR rung in place: the
 * escalation order is retry -> ECP re-learn -> PPR remap -> spare
 * retirement -> SLC fallback -> host-visible, on both backends. PPR
 * is chronic-gated (a one-off UE does not burn a spare row) and
 * one-shot per address (a remapped line that fails again falls
 * through to retirement). Ladder counters in ScrubMetrics track
 * every rung, and the whole pipeline stays bit-identical across
 * worker-thread counts.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "faults/fault_injector.hh"
#include "mem/ppr.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/sweep_scrub.hh"

namespace pcmscrub {
namespace {

// ---------------------------------------------------------------
// Analytic backend: one line walked down the whole ladder.
// ---------------------------------------------------------------

AnalyticConfig
ladderConfig()
{
    AnalyticConfig config;
    config.lines = 2;
    config.scheme = EccScheme::bch(4);
    config.demand.writesPerLinePerSecond = 0.0;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 13;
    config.degradation.enabled = true;
    // Retry and ECP are exercised separately below; for the walk
    // down the repair rungs they are switched off so every induced
    // UE reaches stage 3+ deterministically.
    config.degradation.maxRetries = 0;
    config.degradation.ecpRepair = false;
    config.degradation.pprSpareRows = 2;
    config.degradation.pprUeThreshold = 1;
    config.degradation.spareLines = 2;
    config.degradation.slcFallback = true;
    return config;
}

FaultInjector &
lethalInjector()
{
    static FaultCampaignConfig campaign = [] {
        FaultCampaignConfig c;
        c.disturbFlipsPerRead = 20.0; // Far beyond BCH t=4.
        c.seed = 99;
        return c;
    }();
    static FaultInjector injector(campaign);
    return injector;
}

TEST(PprLadder, AnalyticEscalationOrder)
{
    AnalyticBackend backend(ladderConfig());
    backend.setFaultInjector(&lethalInjector());

    // Each pass defeats the decoder outright, so each pass consumes
    // exactly one rung per line, in the documented priority order.
    const DegradationStage expected[] = {
        DegradationStage::PprRemap,  // Chronic at threshold 1.
        DegradationStage::Retire,    // The fuse is one-shot.
        DegradationStage::SlcFallback,
        DegradationStage::HostVisible,
    };
    for (unsigned pass = 0; pass < 4; ++pass) {
        const Tick now = secondsToTicks(100.0 * (pass + 1));
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            EXPECT_EQ(outcome.handledBy, expected[pass])
                << "pass " << pass << " line " << line;
        }
    }

    const ScrubMetrics &m = backend.metrics();
    EXPECT_EQ(m.uePprRemapped, 2u);
    EXPECT_EQ(m.ueRetired, 2u);
    EXPECT_EQ(m.ueSlcFallbacks, 2u);
    EXPECT_EQ(m.ueSurfaced, 2u);
    EXPECT_EQ(m.ueAbsorbed(), 6u);
    EXPECT_EQ(m.pprSparesRemaining, 0u);
    EXPECT_EQ(m.sparesRemaining, 0u);
    EXPECT_TRUE(backend.ppr()->exhausted());
    EXPECT_TRUE(backend.ppr()->isRemapped(0));
    EXPECT_TRUE(backend.ppr()->isRemapped(1));
}

TEST(PprLadder, AnalyticRetryAndEcpOutrankPpr)
{
    // With retry enabled, a transient-only UE never reaches the
    // repair rungs: the re-read sheds the disturbance outright.
    AnalyticConfig config = ladderConfig();
    config.degradation.maxRetries = 1;
    AnalyticBackend retryBackend(config);
    retryBackend.setFaultInjector(&lethalInjector());
    const FullDecodeOutcome viaRetry =
        retryBackend.fullDecode(0, secondsToTicks(100.0));
    EXPECT_EQ(viaRetry.handledBy, DegradationStage::Retry);
    EXPECT_EQ(retryBackend.metrics().uePprRemapped, 0u);
    EXPECT_EQ(retryBackend.ppr()->remappedCount(), 0u);

    // With ECP repair enabled (and no stuck cells to re-learn), the
    // write-verify pass absorbs the event before PPR is consulted.
    config.degradation.maxRetries = 0;
    config.degradation.ecpRepair = true;
    config.ecpEntries = 2;
    AnalyticBackend ecpBackend(config);
    ecpBackend.setFaultInjector(&lethalInjector());
    const FullDecodeOutcome viaEcp =
        ecpBackend.fullDecode(0, secondsToTicks(100.0));
    EXPECT_EQ(viaEcp.handledBy, DegradationStage::EcpRepair);
    EXPECT_EQ(ecpBackend.metrics().uePprRemapped, 0u);
}

TEST(PprLadder, AnalyticChronicGateSparesOneOffLines)
{
    // Threshold 2: the first UE is not chronic and must fall through
    // to retirement without burning a spare row; the second UE on
    // the same (now chronically failing) address qualifies.
    AnalyticConfig config = ladderConfig();
    config.degradation.pprUeThreshold = 2;
    config.degradation.spareLines = 0; // Isolate the PPR decision.
    config.degradation.slcFallback = false;
    AnalyticBackend backend(config);
    backend.setFaultInjector(&lethalInjector());

    const FullDecodeOutcome first =
        backend.fullDecode(0, secondsToTicks(100.0));
    EXPECT_EQ(first.handledBy, DegradationStage::HostVisible);
    EXPECT_EQ(backend.ppr()->ueHistory(0), 1u);
    EXPECT_EQ(backend.ppr()->remappedCount(), 0u);

    const FullDecodeOutcome second =
        backend.fullDecode(0, secondsToTicks(200.0));
    EXPECT_EQ(second.handledBy, DegradationStage::PprRemap);
    EXPECT_EQ(backend.ppr()->ueHistory(0), 2u);
    EXPECT_TRUE(backend.ppr()->isRemapped(0));
    EXPECT_EQ(backend.metrics().uePprRemapped, 1u);
    EXPECT_EQ(backend.metrics().ueSurfaced, 1u);
}

// ---------------------------------------------------------------
// Cell backend: hard faults walking the same rungs.
// ---------------------------------------------------------------

TEST(PprLadder, CellEscalationOrder)
{
    CellBackendConfig config;
    config.lines = 2;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 16;
    config.seed = 17;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.pprSpareRows = 1;
    config.degradation.pprUeThreshold = 1;
    config.degradation.spareLines = 1;
    config.degradation.slcFallback = true;
    CellBackend backend(config);

    FaultCampaignConfig campaign;
    campaign.seed = 23;
    FaultInjector freezer(campaign);

    const LineIndex line = 0;

    // Rung 2: a modest stuck population fits the ECP budget, so the
    // write-verify pass re-learns it and the line decodes again.
    freezer.freezeCells(backend.array().line(line), 8);
    FullDecodeOutcome outcome =
        backend.fullDecode(line, secondsToTicks(1.0));
    EXPECT_EQ(outcome.handledBy, DegradationStage::EcpRepair);

    // Rung 3: a stuck population beyond ECP+ECC reach forces the
    // first repair rung — the chronic address (one prior escalation
    // at threshold 1) is fused over to the PPR spare row.
    freezer.freezeCells(backend.array().line(line), 60);
    outcome = backend.fullDecode(line, secondsToTicks(2.0));
    EXPECT_EQ(outcome.handledBy, DegradationStage::PprRemap);
    EXPECT_TRUE(backend.ppr()->isRemapped(line));
    EXPECT_EQ(backend.metrics().uePprRemapped, 1u);
    EXPECT_EQ(backend.metrics().pprSparesRemaining, 0u);
    // The remapped row is fresh silicon: clean from here on.
    EXPECT_EQ(backend.trueErrors(line, secondsToTicks(2.5)), 0u);

    // Rung 4: the fuse is one-shot, so killing the spare row falls
    // through to spare-pool retirement.
    freezer.freezeCells(backend.array().line(line), 60);
    outcome = backend.fullDecode(line, secondsToTicks(3.0));
    EXPECT_EQ(outcome.handledBy, DegradationStage::Retire);
    EXPECT_EQ(backend.metrics().ueRetired, 1u);
    EXPECT_EQ(backend.metrics().sparesRemaining, 0u);

    // Rung 5: with every spare consumed, the next failure drops the
    // line to SLC. 60 dead cells defeat even SLC operation, so the
    // event still surfaces — but the fallback is recorded and the
    // ladder is fully exhausted for this address.
    freezer.freezeCells(backend.array().line(line), 60);
    outcome = backend.fullDecode(line, secondsToTicks(4.0));
    EXPECT_EQ(backend.metrics().ueSlcFallbacks, 1u);
    EXPECT_EQ(outcome.handledBy, DegradationStage::HostVisible);

    const ScrubMetrics &m = backend.metrics();
    EXPECT_EQ(m.ueEcpRepaired, 1u);
    EXPECT_EQ(m.uePprRemapped, 1u);
    EXPECT_EQ(m.ueRetired, 1u);
    EXPECT_EQ(m.ueSurfaced, 1u);
}

TEST(PprLadder, CellSlcFallbackAbsorbsDriftDamage)
{
    // Drift is exactly what SLC fallback cures: a line left alone
    // long enough for resistance drift to defeat the decoder has no
    // stuck cells, so the half-density (drift-immune) reprogram
    // absorbs the event instead of surfacing it.
    CellBackendConfig config;
    config.lines = 1;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 0;
    config.seed = 31;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 0;
    config.degradation.slcFallback = true;
    CellBackend backend(config);

    const Tick decade = secondsToTicks(10.0 * 365.0 * 86400.0);
    const FullDecodeOutcome outcome = backend.fullDecode(0, decade);
    EXPECT_EQ(outcome.handledBy, DegradationStage::SlcFallback);
    EXPECT_EQ(backend.metrics().ueSlcFallbacks, 1u);
    EXPECT_EQ(backend.metrics().ueSurfaced, 0u);
}

// ---------------------------------------------------------------
// Determinism: the PPR rung under the parallel engine.
// ---------------------------------------------------------------

/** A sweep pipeline heavy enough to fire the PPR rung via drift. */
ScrubMetrics
runParallelLadder(unsigned threads)
{
    ThreadPool::global().resize(threads);
    AnalyticConfig config;
    config.lines = 512;
    config.scheme = EccScheme::bch(4);
    config.demand.writesPerLinePerSecond = 0.0;
    config.demand.readsPerLinePerSecond = 1e-4;
    config.seed = 41;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 0;
    config.degradation.ecpRepair = false;
    // One row and one spare per line (8 per shard). A line takes
    // rows and spares only from its own shard's partition (see
    // PprRemapTable), so the outcome does not depend on the thread
    // count whether or not a partition runs dry. Exhaustion
    // fall-through is covered by the escalation-order tests above.
    config.degradation.pprSpareRows = 512;
    config.degradation.pprUeThreshold = 1;
    config.degradation.spareLines = 512;
    AnalyticBackend backend(config);

    // A relaxed sweep on BCH-4 lets the fast-drifter tail reach
    // uncorrectable depth between visits, so the ladder fires from
    // ordinary scrub operation (no injector).
    StrongEccScrub policy(secondsToTicks(6.0 * 3600.0));
    const Tick horizon = secondsToTicks(14.0 * 86400.0);
    while (policy.nextWake() <= horizon)
        policy.wake(backend, policy.nextWake());

    ScrubMetrics metrics = backend.metrics();
    ThreadPool::global().resize(1);
    return metrics;
}

TEST(PprLadder, ParallelDeterminismWithPprRung)
{
    const ScrubMetrics serial = runParallelLadder(1);
    const ScrubMetrics parallel = runParallelLadder(4);

    // The campaign must actually exercise the rung being tested,
    // and leave rows and spares over in some partitions.
    EXPECT_GT(serial.uePprRemapped, 0u);
    EXPECT_GT(serial.pprSparesRemaining, 0u);
    EXPECT_GT(serial.sparesRemaining, 0u);

    EXPECT_EQ(serial.uePprRemapped, parallel.uePprRemapped);
    EXPECT_EQ(serial.ueRetired, parallel.ueRetired);
    EXPECT_EQ(serial.ueSurfaced, parallel.ueSurfaced);
    EXPECT_EQ(serial.pprSparesRemaining,
              parallel.pprSparesRemaining);
    EXPECT_EQ(serial.sparesRemaining, parallel.sparesRemaining);
    EXPECT_EQ(serial.scrubRewrites, parallel.scrubRewrites);
    EXPECT_EQ(serial.correctedErrors, parallel.correctedErrors);
    EXPECT_EQ(serial.demandUncorrectable,
              parallel.demandUncorrectable);
    EXPECT_EQ(serial.energy.total(), parallel.energy.total());
}

} // namespace
} // namespace pcmscrub
