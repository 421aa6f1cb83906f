/**
 * @file
 * RAS control-plane contract tests: the runtime scrub-interval knob
 * honours its configured bounds (and fatal()s on anything outside
 * them), per-region telemetry reconciles exactly with the global
 * ScrubMetrics and stays bit-identical across thread counts, and the
 * ScrubRateController's tighten/relax/hold arithmetic matches its
 * documented hysteresis and clamping behaviour.
 */

#include <array>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "faults/fault_injector.hh"
#include "ras/control_plane.hh"
#include "ras/controlled_scrub.hh"
#include "ras/controller.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/sweep_scrub.hh"

namespace pcmscrub {
namespace {

constexpr Tick kHour = secondsToTicks(3600.0);

RasSettings
testSettings()
{
    RasSettings ras;
    ras.enabled = true;
    ras.minIntervalS = 600.0;
    ras.maxIntervalS = 7200.0;
    ras.sloUePerLineDay = 1e-3;
    ras.sampleEveryS = 6.0 * 3600.0;
    ras.stepFactor = 2.0;
    ras.hysteresis = 0.25;
    ras.linesPerRegion = 16;
    return ras;
}

AnalyticConfig
quietConfig()
{
    AnalyticConfig config;
    config.lines = 64;
    config.scheme = EccScheme::bch(4);
    config.demand.writesPerLinePerSecond = 0.0;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 42;
    return config;
}

// ---------------------------------------------------------------
// Scrub-rate knob: bounded get/set.
// ---------------------------------------------------------------

TEST(RasControlPlane, IntervalGetSetWithinBounds)
{
    AnalyticBackend backend(quietConfig());
    StrongEccScrub policy(secondsToTicks(3600.0));
    RasControlPlane plane(backend, policy, testSettings());

    EXPECT_DOUBLE_EQ(plane.scrubIntervalS(), 3600.0);

    plane.setScrubIntervalS(1200.0);
    EXPECT_DOUBLE_EQ(plane.scrubIntervalS(), 1200.0);
    EXPECT_EQ(policy.interval(), secondsToTicks(1200.0));

    // The bounds themselves are legal values.
    plane.setScrubIntervalS(600.0);
    plane.setScrubIntervalS(7200.0);
    EXPECT_DOUBLE_EQ(plane.scrubIntervalS(), 7200.0);
}

TEST(RasControlPlaneDeathTest, SetIntervalOutsideBoundsRejected)
{
    AnalyticBackend backend(quietConfig());
    StrongEccScrub policy(secondsToTicks(3600.0));
    RasControlPlane plane(backend, policy, testSettings());

    EXPECT_EXIT(plane.setScrubIntervalS(599.0),
                ::testing::ExitedWithCode(1),
                "outside the control-plane bounds");
    EXPECT_EXIT(plane.setScrubIntervalS(7201.0),
                ::testing::ExitedWithCode(1),
                "outside the control-plane bounds");
}

TEST(RasControlPlaneDeathTest, CtorRejectsPolicyOutsideBounds)
{
    AnalyticBackend backend(quietConfig());
    StrongEccScrub policy(secondsToTicks(60.0)); // Below the floor.
    EXPECT_EXIT(
        RasControlPlane(backend, policy, testSettings()),
        ::testing::ExitedWithCode(1),
        "starts outside the control-plane bounds");
}

TEST(RasControlPlaneDeathTest, CtorRevalidatesSettings)
{
    AnalyticBackend backend(quietConfig());
    StrongEccScrub policy(secondsToTicks(3600.0));

    RasSettings badStep = testSettings();
    badStep.stepFactor = 1.0;
    EXPECT_EXIT(RasControlPlane(backend, policy, badStep),
                ::testing::ExitedWithCode(1),
                "step_factor must be > 1");

    RasSettings badBounds = testSettings();
    badBounds.maxIntervalS = badBounds.minIntervalS / 2.0;
    EXPECT_EXIT(RasControlPlane(backend, policy, badBounds),
                ::testing::ExitedWithCode(1),
                "max_interval_s must be >= min_interval_s");

    RasSettings badHyst = testSettings();
    badHyst.hysteresis = 1.0;
    EXPECT_EXIT(RasControlPlane(backend, policy, badHyst),
                ::testing::ExitedWithCode(1),
                "hysteresis must be in \\[0, 1\\)");
}

// ---------------------------------------------------------------
// Telemetry: region counters reconcile with the global metrics.
// ---------------------------------------------------------------

AnalyticConfig
driftyConfig()
{
    AnalyticConfig config;
    config.lines = 96; // Not a multiple of the region size: the
                       // last region is short on purpose.
    config.scheme = EccScheme::bch(4);
    config.demand.writesPerLinePerSecond = 1e-5;
    config.demand.readsPerLinePerSecond = 1e-4;
    config.seed = 11;
    return config;
}

/** Drive a controlled sweep for `days` simulated days. */
void
runSweep(AnalyticBackend &backend, ControlledScrub &policy,
         double days)
{
    const Tick horizon = secondsToTicks(days * 86400.0);
    while (policy.nextWake() <= horizon)
        policy.wake(backend, policy.nextWake());
}

TEST(RegionTelemetryIntegration, TotalsReconcileWithScrubMetrics)
{
    AnalyticBackend backend(driftyConfig());
    ControlledScrub policy(
        std::make_unique<StrongEccScrub>(secondsToTicks(3600.0)),
        backend, testSettings(), /*auto_tune=*/false, "totals");
    runSweep(backend, policy, 3.0);

    const ScrubMetrics &m = backend.metrics();
    const RegionTelemetry &telemetry =
        policy.controlPlane().telemetry();
    const RegionCounters totals = telemetry.totals();

    ASSERT_GT(m.scrubRewrites, 0u);
    EXPECT_EQ(totals.scrubWrites, m.scrubRewrites);
    EXPECT_EQ(totals.correctedErrors, m.correctedErrors);
    EXPECT_EQ(totals.uncorrectable, m.ueSurfaced);
    EXPECT_GT(totals.energyPj, 0.0);

    // Regions partition the device: per-region counters sum to the
    // device-wide totals exactly (energy included).
    RegionCounters summed;
    for (std::uint64_t r = 0; r < telemetry.regionCount(); ++r)
        summed.merge(telemetry.region(r));
    EXPECT_EQ(summed.scrubWrites, totals.scrubWrites);
    EXPECT_EQ(summed.correctedErrors, totals.correctedErrors);
    EXPECT_EQ(summed.uncorrectable, totals.uncorrectable);
    EXPECT_EQ(summed.ladderEscalations, totals.ladderEscalations);
    EXPECT_EQ(summed.energyPj, totals.energyPj);

    // 96 lines at 16 lines/region = 6 regions.
    EXPECT_EQ(telemetry.regionCount(), 6u);
}

TEST(RegionTelemetryIntegration, BitIdenticalAcrossThreadCounts)
{
    std::vector<RegionCounters> regions[2];
    double finalInterval[2] = {0.0, 0.0};
    const unsigned threadCounts[2] = {1, 4};
    for (int pass = 0; pass < 2; ++pass) {
        ThreadPool::global().resize(threadCounts[pass]);
        AnalyticBackend backend(driftyConfig());
        ControlledScrub policy(
            std::make_unique<StrongEccScrub>(secondsToTicks(3600.0)),
            backend, testSettings(), /*auto_tune=*/true, "threads");
        runSweep(backend, policy, 3.0);
        const RegionTelemetry &telemetry =
            policy.controlPlane().telemetry();
        for (std::uint64_t r = 0; r < telemetry.regionCount(); ++r)
            regions[pass].push_back(telemetry.region(r));
        finalInterval[pass] =
            policy.controlPlane().scrubIntervalS();
    }
    ThreadPool::global().resize(1);

    ASSERT_EQ(regions[0].size(), regions[1].size());
    for (std::size_t r = 0; r < regions[0].size(); ++r) {
        EXPECT_EQ(regions[0][r].correctedErrors,
                  regions[1][r].correctedErrors) << "region " << r;
        EXPECT_EQ(regions[0][r].uncorrectable,
                  regions[1][r].uncorrectable) << "region " << r;
        EXPECT_EQ(regions[0][r].ladderEscalations,
                  regions[1][r].ladderEscalations) << "region " << r;
        EXPECT_EQ(regions[0][r].scrubWrites,
                  regions[1][r].scrubWrites) << "region " << r;
        // Bit-identical energy, not just approximately equal.
        EXPECT_EQ(regions[0][r].energyPj, regions[1][r].energyPj)
            << "region " << r;
    }
    EXPECT_EQ(finalInterval[0], finalInterval[1]);
}

TEST(RegionTelemetryIntegration, CellBackendRecordsTelemetry)
{
    CellBackendConfig config;
    config.lines = 32;
    config.scheme = EccScheme::bch(4);
    config.seed = 3;
    CellBackend backend(config);
    StrongEccScrub policy(secondsToTicks(3600.0));
    RasControlPlane plane(backend, policy, testSettings());

    const Tick horizon = secondsToTicks(2.0 * 86400.0);
    while (policy.nextWake() <= horizon)
        policy.wake(backend, policy.nextWake());

    const RegionCounters totals = plane.telemetry().totals();
    EXPECT_EQ(totals.scrubWrites, backend.metrics().scrubRewrites);
    EXPECT_EQ(totals.correctedErrors,
              backend.metrics().correctedErrors);
    EXPECT_GT(totals.energyPj, 0.0);
}

/** A ladder with few repair resources: some UEs are absorbed and
 *  some surface once the rungs run dry. */
DegradationConfig
scarceLadder()
{
    DegradationConfig deg;
    deg.enabled = true;
    deg.maxRetries = 1;
    deg.pprSpareRows = 4;
    deg.pprUeThreshold = 1;
    deg.spareLines = 4;
    deg.slcFallback = true;
    return deg;
}

/** Read disturb and stuck-at faults that defeat BCH t=4 often
 *  enough to run every ladder stage on both backends. */
FaultCampaignConfig
ladderCampaign()
{
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 2.0;
    campaign.disturbFlipsPerRead = 3.0;
    campaign.seed = 41;
    return campaign;
}

/** fullDecode outcomes by the stage that handled them. */
using StageTally = std::array<
    std::uint64_t, static_cast<unsigned>(DegradationStage::HostVisible) + 1>;

/**
 * Hourly full-decode sweeps over every line for `days`, under the
 * ladder campaign, with per-region telemetry attached; returns the
 * outcomes the sweeps saw.
 */
StageTally
sweepWithTelemetry(ScrubBackend &backend, RegionTelemetry &telemetry,
                   double days)
{
    FaultInjector injector(ladderCampaign());
    backend.setFaultInjector(&injector);
    backend.setTelemetry(&telemetry);
    StageTally tally{};
    const Tick horizon = secondsToTicks(days * 86400.0);
    for (Tick now = kHour; now <= horizon; now += kHour) {
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            backend.noteVisit(line, now);
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            ++tally[static_cast<unsigned>(outcome.handledBy)];
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }
    backend.setTelemetry(nullptr);
    backend.setFaultInjector(nullptr);
    return tally;
}

/**
 * Every UE the ladder settles reaches telemetry with the stage that
 * took it: absorbed ones as ladder escalations, the rest as
 * host-visible UEs. ScrubMetrics::ueAbsorbed() counts every SLC
 * demotion, also one after which the line still fails and the UE
 * surfaces, so it exceeds the absorbed outcomes by exactly those.
 */
void
expectLadderReconciles(const ScrubMetrics &m, const RegionCounters &totals,
                       const StageTally &tally)
{
    const auto count = [&](DegradationStage stage) {
        return tally[static_cast<unsigned>(stage)];
    };
    const std::uint64_t absorbed = count(DegradationStage::Retry) +
        count(DegradationStage::EcpRepair) +
        count(DegradationStage::PprRemap) +
        count(DegradationStage::Retire) +
        count(DegradationStage::SlcFallback);
    EXPECT_GT(absorbed, 0u);
    EXPECT_GT(count(DegradationStage::HostVisible), 0u);
    EXPECT_EQ(totals.ladderEscalations, absorbed);
    EXPECT_EQ(totals.uncorrectable, count(DegradationStage::HostVisible));
    EXPECT_EQ(totals.uncorrectable, m.ueSurfaced);
    EXPECT_EQ(m.ueRetryResolved, count(DegradationStage::Retry));
    EXPECT_EQ(m.ueEcpRepaired, count(DegradationStage::EcpRepair));
    EXPECT_EQ(m.uePprRemapped, count(DegradationStage::PprRemap));
    EXPECT_EQ(m.ueRetired, count(DegradationStage::Retire));
    const std::uint64_t failedSlc =
        m.ueSlcFallbacks - count(DegradationStage::SlcFallback);
    EXPECT_EQ(m.ueAbsorbed(), absorbed + failedSlc);
}

TEST(RegionTelemetryIntegration, AnalyticLadderOutcomesReconcile)
{
    AnalyticConfig config = driftyConfig();
    config.ecpEntries = 4;
    config.degradation = scarceLadder();
    AnalyticBackend backend(config);
    RegionTelemetry telemetry(config.lines, 16, backend.shardPlan().count());
    const StageTally tally = sweepWithTelemetry(backend, telemetry, 3.0);
    expectLadderReconciles(backend.metrics(), telemetry.totals(), tally);
}

TEST(RegionTelemetryIntegration, CellLadderOutcomesReconcile)
{
    CellBackendConfig config;
    config.lines = 32;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 4;
    config.seed = 3;
    config.degradation = scarceLadder();
    CellBackend backend(config);
    RegionTelemetry telemetry(config.lines, 16, backend.shardPlan().count());
    const StageTally tally = sweepWithTelemetry(backend, telemetry, 2.0);
    expectLadderReconciles(backend.metrics(), telemetry.totals(), tally);
}

// ---------------------------------------------------------------
// ScrubRateController: the feedback arithmetic.
// ---------------------------------------------------------------

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : settings_(testSettings()),
          controller_(settings_, /*lines=*/1000)
    {
        // Prime the baseline at t = 0 with zeroed counters.
        const ControllerSample first =
            controller_.sample(0, metrics_, 3600.0);
        EXPECT_EQ(first.action, ControllerAction::Hold);
    }

    /** Advance one day and surface `ues` additional UEs. */
    ControllerSample dayLater(std::uint64_t ues, double interval_s,
                              std::uint64_t writes = 0)
    {
        ++days_;
        metrics_.ueSurfaced += ues;
        metrics_.scrubRewrites += writes;
        return controller_.sample(
            secondsToTicks(days_ * 86400.0), metrics_, interval_s);
    }

    RasSettings settings_;
    ScrubMetrics metrics_;
    ScrubRateController controller_;
    unsigned days_ = 0;
};

TEST_F(ControllerTest, TightensAboveSloAndClampsToMin)
{
    // slo 1e-3/line-day * 1000 lines = 1 UE/day; hysteresis 0.25
    // puts the tighten threshold at 1.25/day.
    const ControllerSample s = dayLater(/*ues=*/10, 3600.0);
    EXPECT_EQ(s.action, ControllerAction::Tighten);
    EXPECT_DOUBLE_EQ(s.ueRate, 10.0 / 1000.0);
    EXPECT_DOUBLE_EQ(s.intervalAfterS, 1800.0);

    // Tightening from just above the floor clamps to the floor.
    const ControllerSample clamped = dayLater(10, 700.0);
    EXPECT_EQ(clamped.action, ControllerAction::Tighten);
    EXPECT_DOUBLE_EQ(clamped.intervalAfterS,
                     settings_.minIntervalS);
}

TEST_F(ControllerTest, RelaxesOnlyAfterTwoCalmSamples)
{
    const ControllerSample calm1 = dayLater(/*ues=*/0, 3600.0);
    EXPECT_EQ(calm1.action, ControllerAction::Hold);
    EXPECT_EQ(controller_.calmSamples(), 1u);

    const ControllerSample calm2 = dayLater(0, 3600.0);
    EXPECT_EQ(calm2.action, ControllerAction::Relax);
    EXPECT_DOUBLE_EQ(calm2.intervalAfterS,
                     3600.0 * std::sqrt(settings_.stepFactor));
    EXPECT_EQ(controller_.calmSamples(), 0u); // Streak restarts.
}

TEST_F(ControllerTest, RelaxClampsToMax)
{
    dayLater(0, 7000.0);
    const ControllerSample s = dayLater(0, 7000.0);
    EXPECT_EQ(s.action, ControllerAction::Relax);
    EXPECT_DOUBLE_EQ(s.intervalAfterS, settings_.maxIntervalS);
}

TEST_F(ControllerTest, DeadbandHoldsAndResetsCalmStreak)
{
    dayLater(0, 3600.0); // calm = 1.
    // 1 UE/day on 1000 lines = exactly the SLO: inside the deadband.
    const ControllerSample hold = dayLater(1, 3600.0);
    EXPECT_EQ(hold.action, ControllerAction::Hold);
    EXPECT_EQ(controller_.calmSamples(), 0u);

    // The earlier calm sample must not count any more: one more calm
    // day is still only streak 1.
    const ControllerSample calm = dayLater(0, 3600.0);
    EXPECT_EQ(calm.action, ControllerAction::Hold);
    EXPECT_EQ(controller_.calmSamples(), 1u);
}

TEST_F(ControllerTest, UeSloOutranksWriteBudget)
{
    // Over the write budget but also over the UE SLO: tighten wins —
    // uncorrectable exposure dominates any energy concern.
    settings_.writeBudgetPerLineDay = 1.0;
    ScrubRateController controller(settings_, 1000);
    controller.sample(0, metrics_, 3600.0);
    metrics_.ueSurfaced += 10;
    metrics_.scrubRewrites += 10000;
    const ControllerSample s = controller.sample(
        secondsToTicks(86400.0), metrics_, 3600.0);
    EXPECT_EQ(s.action, ControllerAction::Tighten);
}

TEST_F(ControllerTest, WriteBudgetAcceleratesRelax)
{
    // Calm UE-wise but spending over the write budget: a single calm
    // sample is enough to relax (no need to wait out the streak).
    settings_.writeBudgetPerLineDay = 1.0;
    ScrubRateController controller(settings_, 1000);
    controller.sample(0, metrics_, 3600.0);
    metrics_.scrubRewrites += 10000; // 10 writes/line-day > budget.
    const ControllerSample s = controller.sample(
        secondsToTicks(86400.0), metrics_, 3600.0);
    EXPECT_EQ(s.action, ControllerAction::Relax);
}

TEST_F(ControllerTest, LadderAbsorbedUesDoNotCountAgainstSlo)
{
    // The ladder doing its job is not an SLO breach: only surfaced
    // and demand-read UEs feed the controller.
    metrics_.uePprRemapped += 500;
    metrics_.ueRetired += 500;
    dayLater(0, 3600.0);
    const ControllerSample s = dayLater(0, 3600.0);
    EXPECT_EQ(s.action, ControllerAction::Relax);
    EXPECT_DOUBLE_EQ(s.ueRate, 0.0);
}

} // namespace
} // namespace pcmscrub
