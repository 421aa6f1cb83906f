/**
 * @file
 * Golden-checkpoint regression tests: the cell backend's checkpoint
 * byte stream after a fixed degradation-heavy campaign is compared
 * against a fixture captured when the v5 container (per-shard
 * partitions of the spare pool and the PPR remap table) landed.
 * This proves the refactor (and any later storage change) is
 * byte-compatible — same snapshot layout, same RNG draw order, same
 * floating-point results — not merely "passes its own round-trip".
 *
 * Regenerating the fixture (only when a format change is intended):
 *
 *   PCMSCRUB_REGEN_GOLDEN=1 ./golden_checkpoint_test
 *
 * which rewrites tests/data/golden_checkpoint_v5.bin in the source
 * tree; commit the new fixture together with the format change.
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
#include "scrub/cell_backend.hh"
#include "scrub/policy.hh"
#include "scrub/sweep_scrub.hh"

namespace pcmscrub {
namespace {

const char *const kFixturePath =
    PCMSCRUB_GOLDEN_DIR "/golden_checkpoint_v5.bin";

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

} // namespace
} // namespace pcmscrub
