/**
 * @file
 * The snapshot container and checkpoint codec under hostile input:
 * primitives round-trip bit-exactly, writes are atomic, and every
 * corruption — truncation, single bit flips anywhere in the file,
 * version or geometry or policy mismatches — is rejected with a
 * diagnostic, never a silently wrong resume.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/serialize.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/factory.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/snapshot.hh"

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

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

// Serialization primitives ---------------------------------------

TEST(SerializeTest, PrimitivesRoundTrip)
{
    SnapshotSink sink;
    sink.u8(0xab);
    sink.u16(0xbeef);
    sink.u32(0xdeadbeefu);
    sink.u64(0x0123456789abcdefull);
    sink.boolean(true);
    sink.boolean(false);
    sink.f32(3.25f);
    sink.f64(-1.0 / 3.0);
    sink.str("hello snapshot");
    BitVector vec(130);
    vec.set(0, true);
    vec.set(64, true);
    vec.set(129, true);
    sink.bits(vec);

    const std::vector<std::uint8_t> &bytes = sink.bytes();
    SnapshotSource source(bytes.data(), bytes.size(), "test");
    EXPECT_EQ(source.u8(), 0xab);
    EXPECT_EQ(source.u16(), 0xbeef);
    EXPECT_EQ(source.u32(), 0xdeadbeefu);
    EXPECT_EQ(source.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(source.boolean());
    EXPECT_FALSE(source.boolean());
    EXPECT_EQ(source.f32(), 3.25f);
    EXPECT_EQ(source.f64(), -1.0 / 3.0);
    EXPECT_EQ(source.str(), "hello snapshot");
    const BitVector back = source.bits();
    ASSERT_EQ(back.size(), vec.size());
    for (std::size_t i = 0; i < vec.size(); ++i)
        EXPECT_EQ(back.get(i), vec.get(i)) << "bit " << i;
    source.finish(); // No trailing bytes.
}

TEST(SerializeDeathTest, TruncatedReadDies)
{
    SnapshotSink sink;
    sink.u32(7);
    const std::vector<std::uint8_t> bytes = sink.bytes();
    EXPECT_EXIT(
        {
            SnapshotSource source(bytes.data(), bytes.size(), "test");
            (void)source.u64();
        },
        ::testing::ExitedWithCode(1), "snapshot test");
}

TEST(SerializeDeathTest, TrailingBytesDie)
{
    SnapshotSink sink;
    sink.u32(7);
    sink.u8(1);
    const std::vector<std::uint8_t> bytes = sink.bytes();
    EXPECT_EXIT(
        {
            SnapshotSource source(bytes.data(), bytes.size(), "test");
            (void)source.u32();
            source.finish();
        },
        ::testing::ExitedWithCode(1), "snapshot test");
}

TEST(SerializeDeathTest, OutOfBoundsCountDies)
{
    SnapshotSink sink;
    sink.u64(1000);
    const std::vector<std::uint8_t> bytes = sink.bytes();
    EXPECT_EXIT(
        {
            SnapshotSource source(bytes.data(), bytes.size(), "test");
            (void)source.u64Bounded(64, "line count");
        },
        ::testing::ExitedWithCode(1), "line count");
}

TEST(SerializeTest, Crc32MatchesKnownVector)
{
    // CRC32("123456789") with the IEEE polynomial.
    const char *vector = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(vector), 9),
              0xcbf43926u);
}

// Container ------------------------------------------------------

TEST(SnapshotContainerTest, RoundTripsSections)
{
    SnapshotWriter writer(0x1122334455667788ull);
    writer.addSection("alpha", {1, 2, 3});
    writer.addSection("beta", {});
    writer.addSection("gamma", {0xff, 0x00, 0xff, 0x7f});

    SnapshotReader reader(writer.serialize(), "test");
    EXPECT_EQ(reader.fingerprint(), 0x1122334455667788ull);
    EXPECT_TRUE(reader.hasSection("alpha"));
    EXPECT_TRUE(reader.hasSection("beta"));
    EXPECT_FALSE(reader.hasSection("delta"));

    SnapshotSource alpha = reader.section("alpha");
    EXPECT_EQ(alpha.u8(), 1);
    EXPECT_EQ(alpha.u8(), 2);
    EXPECT_EQ(alpha.u8(), 3);
    alpha.finish();

    SnapshotSource beta = reader.section("beta");
    EXPECT_EQ(beta.remaining(), 0u);
    beta.finish();

    SnapshotSource gamma = reader.section("gamma");
    EXPECT_EQ(gamma.u32(), 0x7fff00ffu);
    gamma.finish();
}

TEST(SnapshotContainerDeathTest, MissingSectionDies)
{
    SnapshotWriter writer(1);
    writer.addSection("alpha", {1});
    const std::vector<std::uint8_t> bytes = writer.serialize();
    EXPECT_EXIT(
        {
            SnapshotReader reader(bytes, "test");
            (void)reader.section("beta");
        },
        ::testing::ExitedWithCode(1), "missing");
}

TEST(SnapshotContainerTest, WriteFileIsAtomicAndLeavesNoTemp)
{
    const std::string path = tempPath("atomic.snap");
    SnapshotWriter writer(42);
    writer.addSection("alpha", {9, 9, 9});
    writer.writeFile(path);

    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));

    // Overwrite with new content; the reader must see only the new
    // container, fully formed.
    SnapshotWriter second(43);
    second.addSection("alpha", {1});
    second.writeFile(path);
    const SnapshotReader reader = SnapshotReader::fromFile(path);
    EXPECT_EQ(reader.fingerprint(), 43u);
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(SnapshotContainerDeathTest, MissingFileDies)
{
    EXPECT_EXIT(
        (void)SnapshotReader::fromFile(tempPath("does_not_exist.snap")),
        ::testing::ExitedWithCode(1), "cannot open");
}

// Checkpoint codec on a real backend -----------------------------

AnalyticConfig
smallConfig(std::uint64_t seed)
{
    AnalyticConfig config;
    config.lines = 64;
    config.scheme = EccScheme::bch(4);
    config.demand.writesPerLinePerSecond = 1e-5;
    config.demand.readsPerLinePerSecond = 1e-4;
    config.seed = seed;
    return config;
}

PolicySpec
basicSpec()
{
    PolicySpec spec;
    spec.kind = PolicyKind::Basic;
    spec.interval = secondsToTicks(3600.0);
    return spec;
}

/** Run a short sim and write a checkpoint of its state to `path`. */
void
writeSampleCheckpoint(const std::string &path, std::uint64_t seed = 5)
{
    AnalyticBackend device(smallConfig(seed));
    const auto policy = makePolicy(basicSpec(), device);
    const std::uint64_t wakes =
        runScrub(device, *policy, secondsToTicks(6 * 3600.0));
    writeCheckpoint(path, device, *policy,
                    CheckpointMeta{0, secondsToTicks(6 * 3600.0), wakes,
                                   policy->name()});
}

/** Restore `path` into a freshly-built matching simulation. */
CheckpointMeta
restoreSampleCheckpoint(const std::string &path, std::uint64_t seed = 5)
{
    AnalyticBackend device(smallConfig(seed));
    const auto policy = makePolicy(basicSpec(), device);
    const SnapshotReader reader = SnapshotReader::fromFile(path);
    return readCheckpoint(reader, device, *policy);
}

TEST(CheckpointTest, MetaRoundTrips)
{
    const std::string path = tempPath("meta.snap");
    writeSampleCheckpoint(path);
    const CheckpointMeta meta = restoreSampleCheckpoint(path);
    EXPECT_EQ(meta.runOrdinal, 0u);
    EXPECT_EQ(meta.simTime, secondsToTicks(6 * 3600.0));
    EXPECT_GT(meta.wakes, 0u);
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, VersionMismatchDies)
{
    const std::string path = tempPath("version.snap");
    writeSampleCheckpoint(path);
    std::vector<std::uint8_t> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 12u);
    // Patch the container back to the pre-RAS v1 format: old
    // snapshots predate the PPR/telemetry/interval state and must be
    // rejected loudly, naming both versions, not half-parsed.
    bytes[8] = 1; // Format version field, little-endian low byte.
    writeAll(path, bytes);
    EXPECT_EXIT((void)restoreSampleCheckpoint(path),
                ::testing::ExitedWithCode(1),
                "unsupported format version 1 \\(this build reads "
                "version 5\\)");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, V2SnapshotRejected)
{
    const std::string path = tempPath("version2.snap");
    writeSampleCheckpoint(path);
    std::vector<std::uint8_t> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 12u);
    // v2 snapshots carry the pre-diet f32 cell planes; they must be
    // rejected up front (clear message naming both versions), never
    // mis-parsed into the quantized v3 layout.
    bytes[8] = 2; // Format version field, little-endian low byte.
    writeAll(path, bytes);
    EXPECT_EXIT((void)restoreSampleCheckpoint(path),
                ::testing::ExitedWithCode(1),
                "unsupported format version 2 \\(this build reads "
                "version 5\\)");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, V4SnapshotRejected)
{
    const std::string path = tempPath("version4.snap");
    writeSampleCheckpoint(path);
    std::vector<std::uint8_t> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 12u);
    // v4 snapshots hold one process-wide spare-pool and PPR map each;
    // they must be rejected up front, never mis-parsed into the
    // per-shard partitions of v5.
    bytes[8] = 4; // Format version field, little-endian low byte.
    writeAll(path, bytes);
    EXPECT_EXIT((void)restoreSampleCheckpoint(path),
                ::testing::ExitedWithCode(1),
                "unsupported format version 4 \\(this build reads "
                "version 5\\)");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, BadMagicDies)
{
    const std::string path = tempPath("magic.snap");
    writeSampleCheckpoint(path);
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    EXPECT_EXIT((void)restoreSampleCheckpoint(path),
                ::testing::ExitedWithCode(1), "snapshot");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, GeometryMismatchDies)
{
    const std::string path = tempPath("geometry.snap");
    writeSampleCheckpoint(path);
    EXPECT_EXIT(
        {
            AnalyticConfig config = smallConfig(5);
            config.lines = 128; // Snapshot was taken at 64 lines.
            AnalyticBackend device(config);
            const auto policy = makePolicy(basicSpec(), device);
            const SnapshotReader reader = SnapshotReader::fromFile(path);
            (void)readCheckpoint(reader, device, *policy);
        },
        ::testing::ExitedWithCode(1), "fingerprint");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, SeedMismatchDies)
{
    const std::string path = tempPath("seed.snap");
    writeSampleCheckpoint(path, 5);
    EXPECT_EXIT((void)restoreSampleCheckpoint(path, 6),
                ::testing::ExitedWithCode(1), "fingerprint");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, PolicyMismatchDies)
{
    const std::string path = tempPath("policy.snap");
    writeSampleCheckpoint(path);
    EXPECT_EXIT(
        {
            AnalyticBackend device(smallConfig(5));
            PolicySpec spec;
            spec.kind = PolicyKind::Threshold;
            spec.interval = secondsToTicks(3600.0);
            spec.rewriteThreshold = 2;
            const auto policy = makePolicy(spec, device);
            const SnapshotReader reader = SnapshotReader::fromFile(path);
            (void)readCheckpoint(reader, device, *policy);
        },
        ::testing::ExitedWithCode(1), "saved by policy");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, UnexpectedExtraStateDies)
{
    const std::string path = tempPath("extra.snap");
    {
        AnalyticBackend device(smallConfig(5));
        const auto policy = makePolicy(basicSpec(), device);
        writeCheckpoint(path, device, *policy,
                        CheckpointMeta{0, 0, 0, policy->name()},
                        [](SnapshotSink &sink) { sink.u64(7); });
    }
    // Reading without an extra-state hook must be rejected, not
    // silently dropped.
    EXPECT_EXIT((void)restoreSampleCheckpoint(path),
                ::testing::ExitedWithCode(1), "harness state");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, MissingExtraStateDies)
{
    const std::string path = tempPath("noextra.snap");
    writeSampleCheckpoint(path);
    EXPECT_EXIT(
        {
            AnalyticBackend device(smallConfig(5));
            const auto policy = makePolicy(basicSpec(), device);
            const SnapshotReader reader = SnapshotReader::fromFile(path);
            (void)readCheckpoint(reader, device, *policy,
                                 [](SnapshotSource &source) {
                                     (void)source.u64();
                                 });
        },
        ::testing::ExitedWithCode(1), "harness state");
    std::remove(path.c_str());
}

// Corruption fuzz ------------------------------------------------
//
// Every single-bit flip anywhere in a snapshot must be caught by
// some layer — section CRCs for payload bytes, field validation for
// the header, the fingerprint check for the config stamp — and every
// truncation must die on the length check. The full readCheckpoint()
// path is driven so nothing can slip through between layers.

class SnapshotFuzzDeathTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = tempPath("fuzz.snap");
        writeSampleCheckpoint(path_);
        pristine_ = readAll(path_);
        ASSERT_GT(pristine_.size(), 32u);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
    std::vector<std::uint8_t> pristine_;
};

TEST_F(SnapshotFuzzDeathTest, EverySeededBitFlipIsRejected)
{
    std::mt19937_64 rng(20260806);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t byteIndex = rng() % pristine_.size();
        const unsigned bitIndex = rng() % 8u;
        std::vector<std::uint8_t> corrupted = pristine_;
        corrupted[byteIndex] ^= static_cast<std::uint8_t>(1u << bitIndex);
        writeAll(path_, corrupted);
        EXPECT_EXIT((void)restoreSampleCheckpoint(path_),
                    ::testing::ExitedWithCode(1), "snapshot")
            << "flip survived at byte " << byteIndex << " bit "
            << bitIndex;
    }
}

TEST_F(SnapshotFuzzDeathTest, EverySeededTruncationIsRejected)
{
    std::mt19937_64 rng(20260807);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t keep = rng() % pristine_.size();
        std::vector<std::uint8_t> truncated(
            pristine_.begin(),
            pristine_.begin() + static_cast<std::ptrdiff_t>(keep));
        writeAll(path_, truncated);
        EXPECT_EXIT((void)restoreSampleCheckpoint(path_),
                    ::testing::ExitedWithCode(1), "snapshot")
            << "truncation to " << keep << " bytes survived";
    }
}

TEST_F(SnapshotFuzzDeathTest, TrailingGarbageIsRejected)
{
    std::vector<std::uint8_t> padded = pristine_;
    padded.push_back(0);
    writeAll(path_, padded);
    EXPECT_EXIT((void)restoreSampleCheckpoint(path_),
                ::testing::ExitedWithCode(1), "snapshot");
}

// Rotation & newest-valid fallback -------------------------------
//
// Every checkpoint write rotates the previous file to `path.1`, so
// one earlier generation survives a corrupted newest snapshot; the
// resolver walks newest-to-oldest and skips invalid candidates.

TEST(SnapshotFallbackTest, TryFromFileReportsInsteadOfDying)
{
    std::string error;
    EXPECT_FALSE(SnapshotReader::tryFromFile(
                     tempPath("nonexistent.snap"), &error)
                     .has_value());
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

    const std::string path = tempPath("tryfrom.snap");
    writeSampleCheckpoint(path);
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x40;
    writeAll(path, bytes);
    EXPECT_FALSE(
        SnapshotReader::tryFromFile(path, &error).has_value());
    EXPECT_FALSE(error.empty());

    writeSampleCheckpoint(path);
    const auto reader = SnapshotReader::tryFromFile(path, &error);
    ASSERT_TRUE(reader.has_value()) << error;
    EXPECT_EQ(reader->context(), path);
    std::remove(path.c_str());
}

TEST(SnapshotFallbackTest, RotateKeepsOnePreviousGeneration)
{
    const std::string path = tempPath("rotate.snap");
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    rotateSnapshot(path); // No file yet: must be a quiet no-op.
    EXPECT_FALSE(fileExists(path + ".1"));

    writeSampleCheckpoint(path, 5);
    rotateSnapshot(path);
    // The newest generation stays in place until the next write
    // replaces it, so a kill between rotation and write loses nothing.
    EXPECT_TRUE(fileExists(path));
    EXPECT_TRUE(fileExists(path + ".1"));

    writeSampleCheckpoint(path, 5);
    const auto newest = openNewestValidSnapshot(path, nullptr);
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->context(), path);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST(SnapshotFallbackTest, CorruptNewestFallsBackToRotated)
{
    const std::string path = tempPath("fallback.snap");
    writeSampleCheckpoint(path, 5);
    rotateSnapshot(path);
    writeSampleCheckpoint(path, 5);

    // Flip a payload byte in the newest generation: its section CRC
    // trips, and the resolver must fall back to path.1.
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x01;
    writeAll(path, bytes);

    std::string failure;
    const auto reader =
        openNewestValidSnapshot(path, nullptr, &failure);
    ASSERT_TRUE(reader.has_value()) << failure;
    EXPECT_EQ(reader->context(), path + ".1");
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST(SnapshotFallbackTest, FingerprintMismatchIsSkippedAsInvalid)
{
    const std::string path = tempPath("fpmismatch.snap");
    std::remove((path + ".1").c_str());
    writeSampleCheckpoint(path, 5);

    AnalyticBackend expected(smallConfig(5));
    const std::uint64_t good = expected.checkpointFingerprint();
    const auto match = openNewestValidSnapshot(path, &good);
    ASSERT_TRUE(match.has_value());

    // A different seed yields a different config fingerprint: the
    // only candidate no longer counts as valid.
    AnalyticBackend other(smallConfig(6));
    std::string failure;
    const std::uint64_t wrong = other.checkpointFingerprint();
    EXPECT_FALSE(
        openNewestValidSnapshot(path, &wrong, &failure).has_value());
    EXPECT_NE(failure.find("fingerprint"), std::string::npos)
        << failure;
    std::remove(path.c_str());
}

TEST(SnapshotFallbackTest, ResumeWithCorruptNewestUsesRotated)
{
    const std::string path = tempPath("resumefallback.snap");

    // Two generations of the same run: a 6 h checkpoint rotated to
    // path.1, then a corrupted newest.
    writeSampleCheckpoint(path, 5);
    rotateSnapshot(path);
    writeSampleCheckpoint(path, 5);
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x08;
    writeAll(path, bytes);

    CheckpointRuntime &runtime = CheckpointRuntime::global();
    runtime.resetForTest();
    CliOptions opts;
    opts.resumePath = path;
    runtime.configure(opts);

    AnalyticBackend device(smallConfig(5));
    const auto policy = makePolicy(basicSpec(), device);
    runtime.beginRun();
    const auto meta = runtime.tryRestore(device, *policy, 0);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->simTime, secondsToTicks(6 * 3600.0));
    runtime.resetForTest();
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST(CheckpointDeathTest, ResumeWithZeroValidOrdinalsDies)
{
    const std::string path = tempPath("novalid.snap");

    // Both generations corrupt: resolution must fail loudly at
    // configure time, never resume from garbage.
    writeSampleCheckpoint(path, 5);
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x10;
    writeAll(path, bytes);
    writeAll(path + ".1", bytes);

    EXPECT_EXIT(
        {
            CliOptions opts;
            opts.resumePath = path;
            CheckpointRuntime::global().configure(opts);
        },
        ::testing::ExitedWithCode(1),
        "no valid checkpoint ordinal found");
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

} // namespace
} // namespace pcmscrub
