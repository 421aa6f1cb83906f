/**
 * @file
 * Focused tests for the adaptive scheduler's risk machinery: the
 * conditional-horizon mathematics and its scheduling consequences.
 */

#include <gtest/gtest.h>

#include "scrub/adaptive_scrub.hh"
#include "scrub/analytic_backend.hh"

namespace pcmscrub {
namespace {

constexpr Tick kHour = secondsToTicks(3600.0);
constexpr Tick kDay = secondsToTicks(86400.0);

AnalyticConfig
quiet(std::uint64_t lines, unsigned t = 8)
{
    AnalyticConfig config;
    config.lines = lines;
    config.scheme = EccScheme::bch(t);
    config.demand.writesPerLinePerSecond = 0.0;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 77;
    return config;
}

/**
 * A default model with the conditional horizons of a 296-cell BCH-8
 * line holding up to 8 errors prewarmed for the targets used here.
 */
DriftModel
conditionalModel()
{
    DriftModel model{DeviceConfig{}};
    for (unsigned errors = 0; errors <= 8; ++errors) {
        for (const double pUe : {1e-9, 1e-7, 1e-5})
            model.prewarmConditional(296, 8, errors, pUe);
    }
    return model;
}

TEST(ConditionalHorizon, ShrinksWithResidualErrors)
{
    const DriftModel model = conditionalModel();
    const double age = 6.0 * 3600.0;
    double prev = 1e18;
    for (const unsigned errors : {0u, 2u, 4u, 6u}) {
        const double horizon = model.timeToConditionalUncorrectable(
            296, 8, errors, age, 1e-7);
        EXPECT_LT(horizon, prev + 1.0) << "errors " << errors;
        EXPECT_GE(horizon, 0.0);
        prev = horizon;
    }
}

TEST(ConditionalHorizon, ZeroWhenAlreadyOverBudget)
{
    const DriftModel model{DeviceConfig{}};
    EXPECT_EQ(model.timeToConditionalUncorrectable(296, 8, 9, 100.0,
                                                   1e-7),
              0.0);
}

TEST(ConditionalHorizon, OldCleanLinesEarnLongHorizons)
{
    // Drift decelerates in absolute time, so a clean line at age
    // one week has a longer remaining horizon than one at age one
    // hour (with the tail conditioned out by the clean observation
    // both start from the same population, but growth slows).
    const DriftModel model = conditionalModel();
    const double young = model.timeToConditionalUncorrectable(
        296, 8, 0, 3600.0, 1e-7);
    const double old = model.timeToConditionalUncorrectable(
        296, 8, 0, 7.0 * 86400.0, 1e-7);
    EXPECT_GT(old, young);
}

TEST(ConditionalHorizon, LooserTargetExtendsHorizon)
{
    const DriftModel model = conditionalModel();
    const double strict = model.timeToConditionalUncorrectable(
        296, 8, 2, 3600.0, 1e-9);
    const double loose = model.timeToConditionalUncorrectable(
        296, 8, 2, 3600.0, 1e-5);
    EXPECT_GT(loose, strict);
}

TEST(AdaptiveScheduler, FirstWakeAtSafeAge)
{
    AnalyticBackend backend(quiet(256));
    AdaptiveParams params;
    params.procedure.eccCheckFirst = true;
    AdaptiveScrub policy(params, backend);
    EXPECT_EQ(policy.nextWake(), policy.safeAgeTicks());
}

TEST(AdaptiveScheduler, ReschedulesForward)
{
    AnalyticBackend backend(quiet(256));
    AdaptiveParams params;
    params.procedure.eccCheckFirst = true;
    AdaptiveScrub policy(params, backend);
    Tick prev = 0;
    for (int wake = 0; wake < 6; ++wake) {
        const Tick when = policy.nextWake();
        ASSERT_GT(when, prev);
        policy.wake(backend, when);
        prev = when;
    }
    EXPECT_EQ(backend.metrics().linesChecked, 6u * 256u);
}

TEST(AdaptiveScheduler, MinSpacingIsRespected)
{
    AnalyticBackend backend(quiet(256, 2)); // Weak ECC: hot horizons.
    AdaptiveParams params;
    params.procedure.eccCheckFirst = true;
    params.procedure.rewriteThreshold = 2; // Leave errors in place.
    params.minSpacingFraction = 0.25;
    AdaptiveScrub policy(params, backend);
    const Tick minSpacing = static_cast<Tick>(
        static_cast<double>(policy.safeAgeTicks()) * 0.25);
    Tick prev = 0;
    for (int wake = 0; wake < 8; ++wake) {
        const Tick when = policy.nextWake();
        if (wake > 0) {
            EXPECT_GE(when - prev, minSpacing) << "wake " << wake;
        }
        policy.wake(backend, when);
        prev = when;
    }
}

TEST(AdaptiveScheduler, DirtyRegionsCheckedMoreOftenThanClean)
{
    // Two identical devices; in one, rewrite-on-any-error keeps
    // residual errors at zero, in the other a deep threshold leaves
    // errors resident. The dirty configuration must check at least
    // as often.
    AnalyticBackend cleanBackend(quiet(512));
    AdaptiveParams cleanParams;
    cleanParams.procedure.eccCheckFirst = true;
    cleanParams.procedure.rewriteThreshold = 1;
    AdaptiveScrub cleanPolicy(cleanParams, cleanBackend);
    runScrub(cleanBackend, cleanPolicy, 6 * kDay);

    AnalyticBackend dirtyBackend(quiet(512));
    AdaptiveParams dirtyParams = cleanParams;
    dirtyParams.procedure.rewriteThreshold = 7;
    AdaptiveScrub dirtyPolicy(dirtyParams, dirtyBackend);
    runScrub(dirtyBackend, dirtyPolicy, 6 * kDay);

    EXPECT_GE(dirtyBackend.metrics().linesChecked,
              cleanBackend.metrics().linesChecked);
    EXPECT_LT(dirtyBackend.metrics().scrubRewrites,
              cleanBackend.metrics().scrubRewrites);
}

TEST(AdaptiveScheduler, CombinedUsesLightDetectAndThreshold)
{
    AnalyticBackend backend(quiet(256));
    CombinedScrub policy(1e-7, 2, backend, 32);
    EXPECT_EQ(policy.name(), "combined");
    EXPECT_TRUE(policy.params().procedure.lightDetectFirst);
    EXPECT_EQ(policy.params().procedure.rewriteThreshold, 6u);
    runScrub(backend, policy, 2 * kDay);
    EXPECT_EQ(backend.metrics().lightDetects,
              backend.metrics().linesChecked);
}

TEST(AdaptiveSchedulerDeath, InvalidParamsAreFatal)
{
    AnalyticBackend backend(quiet(64));
    AdaptiveParams params;
    params.targetLineUeProb = 0.0;
    EXPECT_EXIT(AdaptiveScrub(params, backend),
                ::testing::ExitedWithCode(1), "target");
    AdaptiveParams params2;
    params2.linesPerRegion = 0;
    EXPECT_EXIT(AdaptiveScrub(params2, backend),
                ::testing::ExitedWithCode(1), "region");
}

} // namespace
} // namespace pcmscrub
