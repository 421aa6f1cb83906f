/**
 * @file
 * The fleet harness's graceful-degradation contract under chaos:
 * with a third or more of the device tasks killed, corrupted, or
 * starved mid-run, the campaign still finishes, quarantines exactly
 * the intended victims, resumes everything else to completion
 * bit-identically, and accounts for every device in exactly one
 * coverage bucket.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "fleet/fleet_runner.hh"

namespace pcmscrub {
namespace {

/**
 * A temp path private to the running test and process: ctest runs
 * every test case as its own process, concurrently under -j.
 */
std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string id = std::string(test->test_suite_name()) + "." +
        test->name() + "." + std::to_string(::getpid());
    std::replace(id.begin(), id.end(), '/', '_');
    return ::testing::TempDir() + "pcmscrub_" + id + "_" + name;
}

/** Delete a campaign's per-device snapshots and its directory. */
void
removeSnapshotDir(const std::string &dir)
{
    for (std::uint64_t i = 0; i < 64; ++i) {
        char name[64];
        std::snprintf(name, sizeof(name), "/device_%llu.snap",
                      static_cast<unsigned long long>(i));
        std::remove((dir + name).c_str());
        std::remove((dir + name + ".1").c_str());
    }
    ::rmdir(dir.c_str());
}

std::string
freshSnapshotDir(const std::string &tag)
{
    const std::string dir = tempPath(tag);
    // Stale per-device snapshots would be resumed by the next
    // campaign; tests always start from an empty directory.
    removeSnapshotDir(dir);
    return dir;
}

FleetConfig
smallCampaign(const std::string &tag, bool chaos)
{
    FleetConfig config;
    config.settings.devices = 12;
    config.settings.retryMax = 3;
    config.settings.quarantineAfter = 3;
    config.settings.backoffBaseMs = 0.0; // No sleeping in tests.
    config.settings.curvePoints = 8;
    config.base.lines = 256;
    config.base.scheme = EccScheme::bch(4);
    config.base.demand.writesPerLinePerSecond = 1e-5;
    config.base.demand.readsPerLinePerSecond = 1e-4;
    config.policy.kind = PolicyKind::Basic;
    config.policy.interval = secondsToTicks(1800.0);
    config.faults.stuckPerWrite = 1e-4;
    config.faults.disturbFlipsPerRead = 1e-3;
    config.days = 2.0;
    config.fleetSeed = 99;
    config.snapshotDir = freshSnapshotDir(tag);
    config.checkpointEveryWakes = 16;
    config.chaos.enabled = chaos;
    // Hit well over the 30% victim floor the contract is stated for.
    config.chaos.victimFraction = 0.75;
    config.chaos.quarantineFraction = 0.35;
    return config;
}

TEST(FleetResilienceTest, ChaosCampaignDegradesGracefully)
{
    const FleetConfig cleanConfig =
        smallCampaign("resilience_clean", false);
    const FleetConfig chaoticConfig =
        smallCampaign("resilience_chaos", true);
    const FleetResult clean = runFleet(cleanConfig);
    const FleetResult chaotic = runFleet(chaoticConfig);
    removeSnapshotDir(cleanConfig.snapshotDir);
    removeSnapshotDir(chaoticConfig.snapshotDir);
    const std::uint64_t devices = clean.devices.size();
    ASSERT_EQ(chaotic.devices.size(), devices);

    // Chaos off: nothing to recover from.
    EXPECT_EQ(clean.completed, devices);
    EXPECT_EQ(clean.plannedVictims, 0u);
    EXPECT_TRUE(clean.coverageComplete());

    // At least 30% of the tasks were attacked, and every device
    // landed in exactly one coverage bucket.
    EXPECT_GE(chaotic.plannedVictims * 10, devices * 3);
    EXPECT_TRUE(chaotic.coverageComplete());
    EXPECT_EQ(chaotic.completed + chaotic.resumed +
                  chaotic.quarantined + chaotic.skipped,
              devices);
    EXPECT_EQ(chaotic.skipped, 0u);

    const unsigned quarantineAfter =
        smallCampaign("unused", true).settings.quarantineAfter;
    for (std::uint64_t i = 0; i < devices; ++i) {
        const ChaosPlan &plan = chaotic.plans[i];
        const SupervisedResult &device = chaotic.devices[i];
        if (!plan.isVictim()) {
            // Non-victims are untouched: completed first try,
            // bit-identical to the chaos-free campaign.
            EXPECT_EQ(device.outcome, DeviceOutcome::Completed)
                << "device " << i;
            EXPECT_EQ(device.failures, 0u) << "device " << i;
        } else if (plan.injuries >= quarantineAfter) {
            // Intended quarantine victims, and only those, are
            // quarantined — with the chaos reason recorded.
            EXPECT_EQ(device.outcome, DeviceOutcome::Quarantined)
                << "device " << i;
            EXPECT_NE(device.quarantineReason.find("(chaos)"),
                      std::string::npos)
                << device.quarantineReason;
        } else {
            // Recoverable victims resume to completion.
            EXPECT_EQ(device.outcome, DeviceOutcome::Resumed)
                << "device " << i;
            EXPECT_EQ(device.failures, plan.injuries)
                << "device " << i;
            EXPECT_EQ(device.failureReasons.size(), plan.injuries);
        }
        // The heart of the contract: every survivor — victim or not
        // — ends bit-identical to the chaos-free run.
        if (device.succeeded()) {
            ASSERT_TRUE(clean.devices[i].succeeded());
            EXPECT_EQ(device.digest, clean.devices[i].digest)
                << "device " << i << " diverged under chaos";
            EXPECT_EQ(device.wakes, clean.devices[i].wakes);
        }
    }
}

TEST(FleetResilienceTest, ManifestAccountsForEveryDevice)
{
    const FleetConfig config = smallCampaign("manifest", true);
    const FleetResult result = runFleet(config);
    removeSnapshotDir(config.snapshotDir);
    const std::string json = fleetManifestJson(config, result);

    EXPECT_NE(json.find("pcmscrub.fleet_manifest.v1"),
              std::string::npos);
    EXPECT_NE(json.find("\"coverage\""), std::string::npos);
    EXPECT_NE(json.find("\"complete\": true"), std::string::npos);
    EXPECT_NE(json.find("\"device_records\""), std::string::npos);
    EXPECT_NE(json.find("\"survival_curve\""), std::string::npos);
    // Chaos leaves its fingerprints: recorded failure reasons and at
    // least one quarantine reason.
    EXPECT_NE(json.find("(chaos)"), std::string::npos);
    if (result.quarantined > 0) {
        EXPECT_NE(json.find("\"quarantine_reason\""),
                  std::string::npos);
    }
    // Survivors carry their result digest.
    EXPECT_NE(json.find("\"digest\""), std::string::npos);
}

TEST(FleetResilienceTest, CancelledDeviceIsSkippedNotLost)
{
    SupervisorConfig config;
    config.device = 3;
    config.horizon = secondsToTicks(86400.0);
    std::atomic<bool> cancel{true};
    const SupervisedResult result = superviseDevice(
        config, ChaosPlan{},
        [] {
            ADD_FAILURE() << "cancelled device must never build";
            return DeviceSim{};
        },
        &cancel);
    EXPECT_EQ(result.outcome, DeviceOutcome::Skipped);
    EXPECT_EQ(result.attempts, 0u);
}

TEST(FleetResilienceTest, GenuineWatchdogDeadlineQuarantines)
{
    // A deadline no attempt can meet: the watchdog trips at the
    // first wake boundary of every attempt, and after
    // quarantineAfter consecutive overruns the device is out.
    FleetConfig fleet = smallCampaign("deadline", false);
    const DeviceSpec spec = sampleDeviceSpec(fleet, 0);

    SupervisorConfig config;
    config.device = 0;
    config.retryMax = 3;
    config.quarantineAfter = 3;
    config.backoffBaseMs = 0.0;
    config.deadlineMs = 1e-9;
    config.horizon = secondsToTicks(fleet.days * 86400.0);
    config.curvePoints = 4;
    const SupervisedResult result = superviseDevice(
        config, ChaosPlan{},
        [&] { return buildDeviceSim(fleet, spec); }, nullptr);
    EXPECT_EQ(result.outcome, DeviceOutcome::Quarantined);
    EXPECT_EQ(result.failures, 3u);
    EXPECT_EQ(result.quarantineReason, "deadline overrun");
}

} // namespace
} // namespace pcmscrub
