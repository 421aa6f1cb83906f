/**
 * @file
 * Tests for the UE degradation ladder: widened-margin retries, ECP
 * re-learn, spare-pool retirement, and SLC fallback — on both
 * backends, driven by deterministic fault campaigns, and in the
 * shared driver alone over scripted backend actions.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_injector.hh"
#include "mem/region_telemetry.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/degradation_ladder.hh"
#include "scrub/recording_backend.hh"

namespace pcmscrub {
namespace {

// ---------------------------------------------------------------
// Cell backend: burst campaign, ladder on vs off.
// ---------------------------------------------------------------

CellBackendConfig
burstConfig(bool ladder)
{
    CellBackendConfig config;
    config.lines = 32;
    config.scheme = EccScheme::bch(4);
    config.seed = 5;
    config.degradation.enabled = ladder;
    config.degradation.maxRetries = 2;
    return config;
}

FaultCampaignConfig
burstCampaign()
{
    FaultCampaignConfig campaign;
    campaign.burstProbPerRead = 0.3;
    campaign.burstBits = 12; // Defeats BCH t=4 outright.
    campaign.seed = 7;
    return campaign;
}

ScrubMetrics
runBurstCampaign(bool ladder)
{
    CellBackend backend(burstConfig(ladder));
    FaultInjector injector(burstCampaign());
    backend.setFaultInjector(&injector);
    for (unsigned pass = 1; pass <= 5; ++pass) {
        const Tick now = secondsToTicks(10.0 * pass);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }
    return backend.metrics();
}

TEST(DegradationLadder, LadderLowersHostVisibleUEs)
{
    // The acceptance comparison: identical seeds, identical fault
    // campaign, the only difference is the ladder switch.
    const ScrubMetrics off = runBurstCampaign(false);
    const ScrubMetrics on = runBurstCampaign(true);

    EXPECT_GT(off.ueSurfaced, 10u);
    EXPECT_LT(on.ueSurfaced, off.ueSurfaced);
    EXPECT_GT(on.ueAbsorbed(), 0u);

    // Disabled means *disabled*: no ladder traffic at all.
    EXPECT_EQ(off.ueRetries, 0u);
    EXPECT_EQ(off.ueAbsorbed(), 0u);
}

TEST(DegradationLadder, RetryResolvesTransientBursts)
{
    // Bursts are transient (they corrupt the sensed word, not the
    // cells), so a widened-margin re-read recovers every one.
    CellBackendConfig config;
    config.lines = 8;
    config.scheme = EccScheme::bch(4);
    config.seed = 3;
    config.degradation.enabled = true;
    CellBackend backend(config);

    FaultCampaignConfig campaign;
    campaign.burstProbPerRead = 1.0; // Every read is corrupted.
    campaign.burstBits = 12;
    campaign.seed = 9;
    FaultInjector injector(campaign);
    backend.setFaultInjector(&injector);

    const Tick now = secondsToTicks(1.0);
    for (LineIndex line = 0; line < backend.lineCount(); ++line) {
        const FullDecodeOutcome outcome = backend.fullDecode(line, now);
        EXPECT_FALSE(outcome.uncorrectable);
        EXPECT_EQ(outcome.handledBy, DegradationStage::Retry);
        EXPECT_EQ(outcome.errors, 0u);
    }
    EXPECT_EQ(backend.metrics().ueRetryResolved, 8u);
    EXPECT_EQ(backend.metrics().ueSurfaced, 0u);
    // Ladder-internal refreshes are not scrub rewrites.
    EXPECT_EQ(backend.metrics().scrubRewrites, 0u);
}

// ---------------------------------------------------------------
// Cell backend: hard faults walking the full ladder.
// ---------------------------------------------------------------

TEST(DegradationLadder, EcpRepairRelearnsStuckCells)
{
    CellBackendConfig config;
    config.lines = 2;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 16;
    config.seed = 17;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    CellBackend backend(config);

    // Freeze more cells than the code can absorb. The warm-up write
    // predates the freeze, so the line's ECP entries know nothing
    // about them until the ladder's write-verify pass re-learns.
    FaultCampaignConfig campaign;
    campaign.seed = 23;
    FaultInjector freezer(campaign);
    freezer.freezeCells(backend.array().line(0), 8);

    const Tick now = secondsToTicks(1.0);
    const FullDecodeOutcome outcome = backend.fullDecode(0, now);
    EXPECT_FALSE(outcome.uncorrectable);
    EXPECT_EQ(outcome.handledBy, DegradationStage::EcpRepair);
    EXPECT_EQ(backend.metrics().ueEcpRepaired, 1u);
    EXPECT_GT(backend.ecpUsed(0), 0u);

    // The repaired line decodes cleanly from here on.
    EXPECT_EQ(backend.trueErrors(0, now + 1), 0u);
}

TEST(DegradationLadder, RetirementConsumesSparesThenFallsToSlc)
{
    CellBackendConfig config;
    config.lines = 4;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 0; // No ECP: stage 2 is skipped.
    config.seed = 17;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.spareLines = 2;
    config.degradation.slcFallback = true;
    CellBackend backend(config);

    EXPECT_EQ(backend.spares()->capacity(), 2u);
    EXPECT_EQ(backend.metrics().sparesRemaining, 2u);

    // Far more stuck cells than any stage below retirement can fix.
    FaultCampaignConfig campaign;
    campaign.seed = 23;
    FaultInjector freezer(campaign);
    for (LineIndex line = 0; line < backend.lineCount(); ++line)
        freezer.freezeCells(backend.array().line(line), 60);

    const Tick now = secondsToTicks(1.0);
    std::vector<DegradationStage> stages;
    for (LineIndex line = 0; line < backend.lineCount(); ++line)
        stages.push_back(backend.fullDecode(line, now).handledBy);

    // Two lines grab the two spares; the rest drop to SLC, which
    // cannot save them either (the cells themselves are dead).
    EXPECT_EQ(stages[0], DegradationStage::Retire);
    EXPECT_EQ(stages[1], DegradationStage::Retire);
    EXPECT_EQ(stages[2], DegradationStage::HostVisible);
    EXPECT_EQ(stages[3], DegradationStage::HostVisible);

    const ScrubMetrics &m = backend.metrics();
    EXPECT_EQ(m.ueRetired, 2u);
    EXPECT_EQ(m.sparesRemaining, 0u);
    EXPECT_EQ(m.ueSlcFallbacks, 2u);
    EXPECT_EQ(m.ueSurfaced, 2u);
    EXPECT_EQ(m.ueRetries, 4u); // One bounded retry per line.

    const SparePool &pool = *backend.spares();
    EXPECT_TRUE(pool.exhausted());
    EXPECT_EQ(pool.retiredCount(), 2u);
    EXPECT_EQ(pool.retirements(0), 1u);
    EXPECT_EQ(pool.retirements(1), 1u);
    EXPECT_EQ(pool.retirements(2), 0u);

    // Retirement and SLC fallback each cost one line of capacity.
    const std::uint64_t lineBits = backend.code().codewordBits();
    EXPECT_EQ(m.capacityLostBits, 4 * lineBits);

    // A retired line resolves to fresh silicon: clean from here on.
    EXPECT_EQ(backend.trueErrors(0, now + 1), 0u);
}

// ---------------------------------------------------------------
// Analytic backend mirrors the same ladder.
// ---------------------------------------------------------------

AnalyticConfig
analyticConfig(bool ladder)
{
    AnalyticConfig config;
    config.lines = 256;
    config.scheme = EccScheme::secdedX8();
    config.demand.writesPerLinePerSecond = 0.0;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 11;
    config.degradation.enabled = ladder;
    return config;
}

ScrubMetrics
runAnalyticCampaign(bool ladder)
{
    AnalyticBackend backend(analyticConfig(ladder));
    FaultCampaignConfig campaign;
    campaign.disturbFlipsPerRead = 3.0;
    campaign.seed = 19;
    FaultInjector injector(campaign);
    backend.setFaultInjector(&injector);
    for (unsigned pass = 1; pass <= 4; ++pass) {
        const Tick now = secondsToTicks(100.0 * pass);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }
    return backend.metrics();
}

TEST(DegradationLadder, AnalyticLadderLowersHostVisibleUEs)
{
    const ScrubMetrics off = runAnalyticCampaign(false);
    const ScrubMetrics on = runAnalyticCampaign(true);

    EXPECT_GT(off.ueSurfaced, 10u);
    EXPECT_LT(on.ueSurfaced, off.ueSurfaced);
    EXPECT_GT(on.ueAbsorbed(), 0u);
    EXPECT_EQ(off.ueRetries, 0u);
}

TEST(DegradationLadder, AnalyticRetirementTracksSparesAndCapacity)
{
    AnalyticConfig config;
    config.lines = 64;
    config.scheme = EccScheme::secdedX8();
    config.demand.writesPerLinePerSecond = 0.5;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 29;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.retryResolveProb = 0.0;
    config.degradation.ecpRepair = false;
    config.degradation.spareLines = 4;
    config.degradation.slcFallback = true;
    AnalyticBackend backend(config);

    // Heavy stuck-at injection riding the demand write traffic.
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 10.0;
    campaign.seed = 31;
    FaultInjector injector(campaign);
    backend.setFaultInjector(&injector);

    for (unsigned pass = 1; pass <= 6; ++pass) {
        const Tick now = secondsToTicks(100.0 * pass);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }

    const ScrubMetrics &m = backend.metrics();
    EXPECT_EQ(m.ueRetired, 4u);
    EXPECT_EQ(m.sparesRemaining, 0u);
    EXPECT_TRUE(backend.spares()->exhausted());
    EXPECT_GT(m.ueSlcFallbacks, 0u);

    const std::uint64_t lineBits =
        static_cast<std::uint64_t>(backend.cellsPerLine()) *
        bitsPerCell;
    EXPECT_EQ(m.capacityLostBits,
              (m.ueRetired + m.ueSlcFallbacks) * lineBits);
}

// ---------------------------------------------------------------
// The recorder surfaces ladder traffic for the bank simulation.
// ---------------------------------------------------------------

TEST(DegradationLadder, RecorderEmitsRetryReadsAndLadderRewrites)
{
    CellBackendConfig config;
    config.lines = 8;
    config.scheme = EccScheme::bch(4);
    config.seed = 3;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 2;
    CellBackend inner(config);
    RecordingBackend recorder(inner);

    FaultCampaignConfig campaign;
    campaign.burstProbPerRead = 1.0;
    campaign.burstBits = 12;
    campaign.seed = 9;
    FaultInjector injector(campaign);
    recorder.setFaultInjector(&injector);

    const Tick now = secondsToTicks(1.0);
    for (LineIndex line = 0; line < recorder.lineCount(); ++line)
        recorder.fullDecode(line, now);

    // Every burst cost one retry (resolved first attempt) and one
    // ladder-internal refresh write.
    const Trace &trace = recorder.trace();
    EXPECT_EQ(trace.countOf(ReqType::RetryRead),
              inner.metrics().ueRetries);
    EXPECT_GT(trace.countOf(ReqType::RetryRead), 0u);
    EXPECT_EQ(trace.countOf(ReqType::ScrubRewrite),
              inner.metrics().ueAbsorbed());
}

// ---------------------------------------------------------------
// The shared driver alone, over scripted backend actions.
// ---------------------------------------------------------------

/** Backend actions that log each call and answer from a script. */
class ScriptedHooks final : public DegradationLadder::Hooks
{
  public:
    bool retryRecovers = false;
    bool ecpRecovers = false;
    bool slc = false;
    bool slcRecovers = false;
    std::vector<std::string> calls;

    bool retryRead(LineIndex, Tick, unsigned attempt) override
    {
        calls.push_back("retry" + std::to_string(attempt));
        return retryRecovers;
    }

    bool relearnEcp(LineIndex, Tick) override
    {
        calls.push_back("ecp");
        return ecpRecovers;
    }

    void moveToFreshRow(LineIndex, Tick) override
    {
        calls.push_back("fresh");
    }

    bool isSlc(LineIndex) const override { return slc; }

    bool dropToSlc(LineIndex, Tick) override
    {
        calls.push_back("slc");
        slc = true;
        return slcRecovers;
    }
};

using Calls = std::vector<std::string>;

TEST(DegradationLadder, DriverClimbsStagesInOrderOverScriptedHooks)
{
    DegradationConfig deg;
    deg.enabled = true;
    deg.maxRetries = 2;
    deg.pprSpareRows = 1;
    deg.pprUeThreshold = 1;
    deg.spareLines = 1;
    deg.slcFallback = true;
    const ShardPlan plan(4, 1);
    DegradationLadder ladder(deg, plan, /*margin_read_pj=*/3.0,
                             /*line_bits=*/100);
    RegionTelemetry telemetry(4, 4, plan.count());
    ScriptedHooks hooks;
    ScrubMetrics m;
    const auto settle = [&] {
        hooks.calls.clear();
        FullDecodeOutcome outcome;
        outcome.errors = 9;
        ladder.settle(0, secondsToTicks(1.0), m, &telemetry, hooks,
                      outcome);
        return outcome;
    };

    // Retries and ECP fail; the chronic line takes the one PPR row.
    FullDecodeOutcome outcome = settle();
    EXPECT_EQ(outcome.handledBy, DegradationStage::PprRemap);
    EXPECT_FALSE(outcome.uncorrectable);
    EXPECT_EQ(outcome.errors, 0u);
    EXPECT_EQ(hooks.calls, (Calls{"retry1", "retry2", "ecp", "fresh"}));

    // The fuse is one-shot, so the next UE retires the line.
    outcome = settle();
    EXPECT_EQ(outcome.handledBy, DegradationStage::Retire);
    EXPECT_EQ(hooks.calls, (Calls{"retry1", "retry2", "ecp", "fresh"}));

    // No spare left: the line drops to SLC, still fails, surfaces.
    outcome = settle();
    EXPECT_EQ(outcome.handledBy, DegradationStage::HostVisible);
    EXPECT_TRUE(outcome.uncorrectable);
    EXPECT_EQ(outcome.errors, 9u);
    EXPECT_EQ(hooks.calls, (Calls{"retry1", "retry2", "ecp", "slc"}));

    // An SLC line has no rung left below retirement.
    outcome = settle();
    EXPECT_EQ(outcome.handledBy, DegradationStage::HostVisible);
    EXPECT_EQ(hooks.calls, (Calls{"retry1", "retry2", "ecp"}));

    // A re-read that recovers ends the climb at once.
    hooks.retryRecovers = true;
    outcome = settle();
    EXPECT_EQ(outcome.handledBy, DegradationStage::Retry);
    EXPECT_EQ(hooks.calls, (Calls{"retry1"}));

    EXPECT_EQ(m.ueRetries, 9u);
    EXPECT_EQ(m.ueRetryResolved, 1u);
    EXPECT_EQ(m.ueEcpRepaired, 0u);
    EXPECT_EQ(m.uePprRemapped, 1u);
    EXPECT_EQ(m.ueRetired, 1u);
    EXPECT_EQ(m.ueSlcFallbacks, 1u);
    EXPECT_EQ(m.ueSurfaced, 2u);
    EXPECT_EQ(m.scrubUncorrectable, 2u);
    EXPECT_EQ(m.capacityLostBits, 200u); // Retirement and SLC.
    EXPECT_EQ(m.energy.get(EnergyCategory::MarginRead), 27.0);

    ladder.mergeGauges(m);
    EXPECT_EQ(m.sparesRemaining, 0u);
    EXPECT_EQ(m.pprSparesRemaining, 0u);

    const RegionCounters totals = telemetry.totals();
    EXPECT_EQ(totals.ladderEscalations, 3u);
    EXPECT_EQ(totals.uncorrectable, 2u);
}

TEST(DegradationLadder, DisabledDriverSurfacesEveryUeUntouched)
{
    DegradationConfig deg; // Off, whatever it would provision.
    deg.spareLines = 8;
    deg.pprSpareRows = 8;
    DegradationLadder ladder(deg, ShardPlan(4, 1), 3.0, 100);
    EXPECT_EQ(ladder.spares().capacity(), 0u);
    EXPECT_EQ(ladder.ppr().capacity(), 0u);

    ScriptedHooks hooks;
    hooks.retryRecovers = true;
    ScrubMetrics m;
    FullDecodeOutcome outcome;
    outcome.errors = 9;
    ladder.settle(0, secondsToTicks(1.0), m, nullptr, hooks, outcome);
    EXPECT_EQ(outcome.handledBy, DegradationStage::HostVisible);
    EXPECT_TRUE(outcome.uncorrectable);
    EXPECT_EQ(outcome.errors, 9u);
    EXPECT_TRUE(hooks.calls.empty());
    EXPECT_EQ(m.ueSurfaced, 1u);
    EXPECT_EQ(m.ueRetries, 0u);
}

} // namespace
} // namespace pcmscrub
