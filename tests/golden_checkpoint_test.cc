/**
 * @file
 * Golden-checkpoint regression tests: each backend's checkpoint byte
 * stream after a fixed degradation-heavy campaign is compared against
 * a fixture. The cell fixture was captured when the v5 container
 * (per-shard partitions of the spare pool and the PPR remap table)
 * landed; the analytic one before the two backends shared one shard
 * shell. This proves a refactor (and any later storage change) is
 * byte-compatible — same snapshot layout, same RNG draw order, same
 * floating-point results — not merely "passes its own round-trip".
 *
 * Regenerating the fixtures (only when a format change is intended):
 *
 *   PCMSCRUB_REGEN_GOLDEN=1 ./golden_checkpoint_test
 *
 * which rewrites tests/data/golden_checkpoint_v5.bin and
 * tests/data/golden_analytic_checkpoint_v5.bin in the source tree;
 * commit the new fixtures together with the format change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "faults/fault_injector.hh"
#include "mem/region_telemetry.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/policy.hh"
#include "scrub/sweep_scrub.hh"

namespace pcmscrub {
namespace {

const char *const kFixturePath =
    PCMSCRUB_GOLDEN_DIR "/golden_checkpoint_v5.bin";
const char *const kAnalyticFixturePath =
    PCMSCRUB_GOLDEN_DIR "/golden_analytic_checkpoint_v5.bin";

/**
 * The fixture campaign: every serialized feature is exercised —
 * stuck-at faults drive ECP entries, retries, spare retirement, and
 * SLC fallback, so the snapshot covers stuck flags, annexed SLC
 * cells, ECP stores, the spare pool, and degradation metrics.
 */
CellBackendConfig
fixtureConfig()
{
    CellBackendConfig config;
    config.lines = 96;
    config.scheme = EccScheme::bch(4);
    config.seed = 11;
    config.ecpEntries = 2;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 2;
    config.degradation.spareLines = 2;
    config.degradation.slcFallback = true;
    // PPR sits between ECP re-learn and retirement; a low threshold
    // makes the fixture campaign actually consume a spare row.
    config.degradation.pprSpareRows = 2;
    config.degradation.pprUeThreshold = 1;
    return config;
}

FaultCampaignConfig
fixtureCampaign()
{
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 0.4;
    campaign.wearCorrelation = 1.0;
    campaign.seed = 99;
    return campaign;
}

/** Run the fixture campaign and return the checkpoint bytes. */
std::vector<std::uint8_t>
runFixtureCampaign()
{
    CellBackend backend(fixtureConfig());
    FaultInjector injector(fixtureCampaign());
    backend.setFaultInjector(&injector);

    BasicScrub policy(secondsToTicks(600.0));
    runScrub(backend, policy, secondsToTicks(4.0 * 3600.0));

    SnapshotSink sink;
    backend.checkpointSave(sink);
    return sink.takeBytes();
}

/**
 * The analytic fixture run: the ladder with every rung (ECP re-learn,
 * PPR rows at threshold 1, spares, SLC fallback), demand-read
 * piggybacking, an injector with stuck, disturb and metadata lanes,
 * and per-region telemetry, so the snapshot covers line and weak-cell
 * state, every shard's visit memo, the ladder tables, the injector
 * streams and the telemetry counters.
 */
AnalyticConfig
analyticFixtureConfig()
{
    AnalyticConfig config;
    config.lines = 96;
    config.scheme = EccScheme::bch(4);
    config.seed = 7;
    config.ecpEntries = 4;
    config.demandReadPiggyback = true;
    config.piggybackRewriteThreshold = 2;
    config.demand.writesPerLinePerSecond = 2e-5;
    config.demand.readsPerLinePerSecond = 1e-3;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.spareLines = 4;
    config.degradation.pprSpareRows = 4;
    config.degradation.pprUeThreshold = 1;
    config.degradation.slcFallback = true;
    return config;
}

FaultCampaignConfig
analyticFixtureCampaign()
{
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 0.5;
    campaign.disturbFlipsPerRead = 2.0;
    campaign.metadataCorruptionProb = 0.05;
    campaign.seed = 41;
    return campaign;
}

/** The analytic backend's attachments, in the fixture's shape. */
struct AnalyticFixture
{
    AnalyticFixture()
        : backend(analyticFixtureConfig()),
          injector(analyticFixtureCampaign()),
          telemetry(backend.lineCount(), 16, backend.shardPlan().count())
    {
        backend.setFaultInjector(&injector);
        backend.setTelemetry(&telemetry);
    }

    AnalyticBackend backend;
    FaultInjector injector;
    RegionTelemetry telemetry;
};

/**
 * Run the analytic fixture campaign and return the checkpoint bytes.
 * An hourly hand-rolled sweep reads each line's metadata, then runs
 * the light detector, a full decode on a hit, and a margin scan every
 * sixth hour, so every check-time operation and fault lane is drawn.
 */
std::vector<std::uint8_t>
runAnalyticFixtureCampaign()
{
    AnalyticFixture fixture;
    AnalyticBackend &backend = fixture.backend;
    const Tick hour = secondsToTicks(3600.0);
    for (Tick now = hour; now <= 72 * hour; now += hour) {
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            backend.noteVisit(line, now);
            backend.lastFullWrite(line, now);
            if (now % (6 * hour) == 0 && backend.marginScan(line, now) > 2)
                backend.scrubRewrite(line, now, /*preventive=*/true);
            if (backend.lightDetectClean(line, now))
                continue;
            const FullDecodeOutcome outcome = backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
            else if (outcome.errors > 0)
                backend.scrubRewrite(line, now);
        }
    }

    SnapshotSink sink;
    backend.checkpointSave(sink);
    return sink.takeBytes();
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return {};
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<std::uint8_t> bytes(size > 0 ? size : 0);
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), file) !=
            bytes.size()) {
        std::fclose(file);
        return {};
    }
    std::fclose(file);
    return bytes;
}

void
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << "cannot write " << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
              bytes.size());
    ASSERT_EQ(std::fclose(file), 0);
}

bool
regenRequested()
{
    const char *env = std::getenv("PCMSCRUB_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(GoldenCheckpoint, FreshRunMatchesFixture)
{
    const std::vector<std::uint8_t> fresh = runFixtureCampaign();
    ASSERT_FALSE(fresh.empty());

    if (regenRequested()) {
        writeFile(kFixturePath, fresh);
        std::printf("regenerated %s (%zu bytes)\n", kFixturePath,
                    fresh.size());
        return;
    }

    const std::vector<std::uint8_t> golden = readFile(kFixturePath);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << kFixturePath
        << "; run with PCMSCRUB_REGEN_GOLDEN=1 to create it";
    ASSERT_EQ(fresh.size(), golden.size())
        << "checkpoint size changed against the golden fixture";
    EXPECT_EQ(fresh, golden)
        << "checkpoint bytes diverged from the golden fixture";
}

TEST(GoldenCheckpoint, LoadSaveRoundTripMatchesFixture)
{
    if (regenRequested())
        GTEST_SKIP() << "regen run";
    const std::vector<std::uint8_t> golden = readFile(kFixturePath);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << kFixturePath
        << "; run with PCMSCRUB_REGEN_GOLDEN=1 to create it";

    // Loading the pre-refactor bytes into a freshly built backend and
    // saving again must reproduce them exactly: every field lands in
    // the same place regardless of how cells are stored in memory.
    CellBackend backend(fixtureConfig());
    FaultInjector injector(fixtureCampaign());
    backend.setFaultInjector(&injector);
    SnapshotSource source(golden.data(), golden.size(),
                          "golden-checkpoint-fixture");
    backend.checkpointLoad(source);

    SnapshotSink sink;
    backend.checkpointSave(sink);
    EXPECT_EQ(sink.bytes(), golden);
}

TEST(GoldenAnalyticCheckpoint, FreshRunMatchesFixture)
{
    const std::vector<std::uint8_t> fresh = runAnalyticFixtureCampaign();
    ASSERT_FALSE(fresh.empty());

    if (regenRequested()) {
        writeFile(kAnalyticFixturePath, fresh);
        std::printf("regenerated %s (%zu bytes)\n", kAnalyticFixturePath,
                    fresh.size());
        return;
    }

    const std::vector<std::uint8_t> golden =
        readFile(kAnalyticFixturePath);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << kAnalyticFixturePath
        << "; run with PCMSCRUB_REGEN_GOLDEN=1 to create it";
    ASSERT_EQ(fresh.size(), golden.size())
        << "checkpoint size changed against the golden fixture";
    EXPECT_EQ(fresh, golden)
        << "checkpoint bytes diverged from the golden fixture";
}

TEST(GoldenAnalyticCheckpoint, LoadSaveRoundTripMatchesFixture)
{
    if (regenRequested())
        GTEST_SKIP() << "regen run";
    const std::vector<std::uint8_t> golden =
        readFile(kAnalyticFixturePath);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << kAnalyticFixturePath
        << "; run with PCMSCRUB_REGEN_GOLDEN=1 to create it";

    AnalyticFixture fixture;
    SnapshotSource source(golden.data(), golden.size(),
                          "golden-analytic-checkpoint-fixture");
    fixture.backend.checkpointLoad(source);

    SnapshotSink sink;
    fixture.backend.checkpointSave(sink);
    EXPECT_EQ(sink.bytes(), golden);
}

} // namespace
} // namespace pcmscrub
