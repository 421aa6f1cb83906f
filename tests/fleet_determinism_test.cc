/**
 * @file
 * Fleet determinism: a supervised campaign is a pure function of its
 * configuration. Device-by-device outcomes and result digests are
 * bit-identical at 1 and 4 worker threads, on both backends, with
 * chaos off and on — and chaos only ever perturbs the devices it
 * names as victims.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/thread_pool.hh"
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
    removeSnapshotDir(dir);
    return dir;
}

FleetConfig
campaign(FleetBackendKind backend, bool chaos)
{
    FleetConfig config;
    config.backendKind = backend;
    // The cell backend simulates every cell; keep it small enough
    // that four full campaigns stay fast.
    const bool cell = backend == FleetBackendKind::Cell;
    config.settings.devices = cell ? 6 : 8;
    config.settings.backoffBaseMs = 0.0;
    config.settings.curvePoints = 6;
    config.base.lines = cell ? 64 : 128;
    config.base.scheme = EccScheme::bch(4);
    config.base.demand.writesPerLinePerSecond = 1e-5;
    config.base.demand.readsPerLinePerSecond = 1e-4;
    config.policy.kind = PolicyKind::Basic;
    config.policy.interval = secondsToTicks(1800.0);
    config.faults.stuckPerWrite = 1e-4;
    config.faults.disturbFlipsPerRead = 1e-3;
    config.days = 1.0;
    config.fleetSeed = 1234;
    config.checkpointEveryWakes = 8;
    config.chaos.enabled = chaos;
    config.chaos.victimFraction = 0.6;
    config.chaos.quarantineFraction = 0.3;
    return config;
}

FleetResult
runAt(FleetBackendKind backend, bool chaos, unsigned threads,
      const std::string &tag)
{
    FleetConfig config = campaign(backend, chaos);
    config.snapshotDir = freshSnapshotDir(tag);
    ThreadPool::global().resize(threads);
    const FleetResult result = runFleet(config);
    ThreadPool::global().resize(1);
    removeSnapshotDir(config.snapshotDir);
    return result;
}

void
expectIdenticalCampaigns(const FleetResult &a, const FleetResult &b)
{
    ASSERT_EQ(a.devices.size(), b.devices.size());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.resumed, b.resumed);
    EXPECT_EQ(a.quarantined, b.quarantined);
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_EQ(a.devices[i].outcome, b.devices[i].outcome)
            << "device " << i;
        EXPECT_EQ(a.devices[i].digest, b.devices[i].digest)
            << "device " << i;
        EXPECT_EQ(a.devices[i].wakes, b.devices[i].wakes)
            << "device " << i;
        EXPECT_EQ(a.devices[i].failures, b.devices[i].failures)
            << "device " << i;
    }
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (std::size_t k = 0; k < a.curve.size(); ++k) {
        EXPECT_EQ(a.curve[k].survivalFraction,
                  b.curve[k].survivalFraction);
        EXPECT_EQ(a.curve[k].meanUncorrectable,
                  b.curve[k].meanUncorrectable);
        EXPECT_EQ(a.curve[k].meanEnergyPj, b.curve[k].meanEnergyPj);
    }
}

class FleetDeterminismTest
    : public ::testing::TestWithParam<FleetBackendKind>
{
};

TEST_P(FleetDeterminismTest, ThreadCountInvariantWithChaosOff)
{
    const FleetResult serial =
        runAt(GetParam(), false, 1, "det_off_t1");
    const FleetResult parallel =
        runAt(GetParam(), false, 4, "det_off_t4");
    expectIdenticalCampaigns(serial, parallel);
    EXPECT_EQ(serial.completed, serial.devices.size());
}

TEST_P(FleetDeterminismTest, ThreadCountInvariantWithChaosOn)
{
    const FleetResult serial =
        runAt(GetParam(), true, 1, "det_on_t1");
    const FleetResult parallel =
        runAt(GetParam(), true, 4, "det_on_t4");
    expectIdenticalCampaigns(serial, parallel);
    EXPECT_GT(serial.plannedVictims, 0u);
}

TEST_P(FleetDeterminismTest, ChaosOnlyPerturbsItsVictims)
{
    const FleetResult clean =
        runAt(GetParam(), false, 4, "det_clean");
    const FleetResult chaotic =
        runAt(GetParam(), true, 4, "det_chaotic");
    ASSERT_EQ(clean.devices.size(), chaotic.devices.size());
    for (std::size_t i = 0; i < clean.devices.size(); ++i) {
        const SupervisedResult &device = chaotic.devices[i];
        if (!chaotic.plans[i].isVictim()) {
            EXPECT_EQ(device.outcome, DeviceOutcome::Completed)
                << "device " << i;
        }
        if (device.succeeded()) {
            EXPECT_EQ(device.digest, clean.devices[i].digest)
                << "device " << i;
        } else {
            EXPECT_TRUE(chaotic.plans[i].isVictim())
                << "device " << i
                << " failed without an injected fault";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, FleetDeterminismTest,
                         ::testing::Values(FleetBackendKind::Analytic,
                                           FleetBackendKind::Cell),
                         [](const auto &info) {
                             return std::string(fleetBackendKindName(
                                 info.param));
                         });

} // namespace
} // namespace pcmscrub
