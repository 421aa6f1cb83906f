/**
 * @file
 * The crash-safety contract: a run that is killed at an arbitrary
 * wake boundary, checkpointed, and resumed into freshly-constructed
 * objects finishes bit-identical to the uninterrupted run — every
 * ScrubMetrics counter (including floating-point energy sums), the
 * fault-injector bookkeeping, and the final per-line device state.
 *
 * Both backends are driven through full pipelines (combined policy,
 * demand writes, fault campaign) at 1 and 4 threads, with the kill
 * point chosen pseudo-randomly per seed. Resuming at a different
 * thread count than the snapshot was taken at must also match: PR 2's
 * determinism contract makes thread count invisible to results, and
 * the snapshot format must not leak it back in.
 *
 * The CheckpointRuntime itself is exercised end to end: periodic
 * `--checkpoint-every` snapshots from runCheckpointed() restore to
 * the identical final state, and a delivered SIGINT flushes a final
 * snapshot and exits 0 — with the flushed snapshot proven resumable
 * afterwards.
 */

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "faults/fault_injector.hh"
#include "mem/ppr.hh"
#include "ras/controlled_scrub.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/factory.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/snapshot.hh"

namespace pcmscrub {
namespace {

constexpr Tick kHour = secondsToTicks(3600.0);
constexpr Tick kDay = secondsToTicks(86400.0);
constexpr std::uint64_t kNoStop = ~0ull;

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

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Restore global runtime + pool so other tests see the defaults. */
class ResumeTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ThreadPool::global().resize(1);
        CheckpointRuntime::global().resetForTest();
        simd::setEnabled(true);
    }
};

class CellResume : public ResumeTest {};
class AnalyticResume : public ResumeTest {};
class RuntimeResume : public ResumeTest {};

void
expectEnergyEqual(const EnergyAccount &a, const EnergyAccount &b)
{
    for (unsigned c = 0;
         c < static_cast<unsigned>(EnergyCategory::NumCategories); ++c) {
        const auto category = static_cast<EnergyCategory>(c);
        EXPECT_EQ(a.get(category), b.get(category))
            << "energy category " << energyCategoryName(category);
    }
}

void
expectMetricsEqual(const ScrubMetrics &a, const ScrubMetrics &b)
{
    EXPECT_EQ(a.linesChecked, b.linesChecked);
    EXPECT_EQ(a.lightDetects, b.lightDetects);
    EXPECT_EQ(a.eccChecks, b.eccChecks);
    EXPECT_EQ(a.fullDecodes, b.fullDecodes);
    EXPECT_EQ(a.marginScans, b.marginScans);
    EXPECT_EQ(a.scrubRewrites, b.scrubRewrites);
    EXPECT_EQ(a.preventiveRewrites, b.preventiveRewrites);
    EXPECT_EQ(a.piggybackRewrites, b.piggybackRewrites);
    EXPECT_EQ(a.correctedErrors, b.correctedErrors);
    EXPECT_EQ(a.scrubUncorrectable, b.scrubUncorrectable);
    EXPECT_EQ(a.demandUncorrectable, b.demandUncorrectable);
    EXPECT_EQ(a.cellsWornOut, b.cellsWornOut);
    EXPECT_EQ(a.demandWrites, b.demandWrites);
    EXPECT_EQ(a.detectorMisses, b.detectorMisses);
    EXPECT_EQ(a.miscorrections, b.miscorrections);
    EXPECT_EQ(a.ueRetries, b.ueRetries);
    EXPECT_EQ(a.ueRetryResolved, b.ueRetryResolved);
    EXPECT_EQ(a.ueEcpRepaired, b.ueEcpRepaired);
    EXPECT_EQ(a.uePprRemapped, b.uePprRemapped);
    EXPECT_EQ(a.pprSparesRemaining, b.pprSparesRemaining);
    EXPECT_EQ(a.ueRetired, b.ueRetired);
    EXPECT_EQ(a.ueSlcFallbacks, b.ueSlcFallbacks);
    EXPECT_EQ(a.ueSurfaced, b.ueSurfaced);
    EXPECT_EQ(a.sparesRemaining, b.sparesRemaining);
    EXPECT_EQ(a.capacityLostBits, b.capacityLostBits);
    expectEnergyEqual(a.energy, b.energy);
}

void
expectInjectorEqual(const FaultInjectorStats &a,
                    const FaultInjectorStats &b)
{
    EXPECT_EQ(a.stuckCellsInjected, b.stuckCellsInjected);
    EXPECT_EQ(a.transientFlips, b.transientFlips);
    EXPECT_EQ(a.bursts, b.bursts);
    EXPECT_EQ(a.miscorrections, b.miscorrections);
    EXPECT_EQ(a.metadataCorruptions, b.metadataCorruptions);
}

/** Deterministic kill point strictly inside (0, totalWakes). */
std::uint64_t
killPoint(std::uint64_t seed, std::uint64_t totalWakes)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    return 1 + rng() % (totalWakes - 1);
}

// Cell-accurate backend -------------------------------------------

/**
 * One full cell-backend pipeline, packaged so it can be torn down
 * mid-run and rebuilt from a snapshot: combined policy, Poisson
 * demand writes (the harness-private state the extra-state hooks
 * must carry), and a fault campaign. Everything derives from `seed`.
 */
struct CellSim
{
    explicit CellSim(std::uint64_t seed)
        : demand(seed + 1)
    {
        config.lines = 160;
        config.scheme = EccScheme::bch(4);
        config.ecpEntries = 4;
        config.seed = seed;
        config.degradation.enabled = true;
        config.degradation.maxRetries = 2;
        config.degradation.spareLines = 64;
        config.degradation.slcFallback = true;
        device = std::make_unique<CellBackend>(config);

        FaultCampaignConfig campaign;
        campaign.stuckPerWrite = 0.05;
        campaign.disturbFlipsPerRead = 0.1;
        campaign.burstProbPerRead = 0.02;
        campaign.burstBits = 6;
        campaign.miscorrectionProb = 0.01;
        campaign.metadataCorruptionProb = 0.01;
        campaign.seed = seed * 31 + 5;
        injector = std::make_unique<FaultInjector>(campaign);
        device->setFaultInjector(injector.get());

        PolicySpec spec;
        spec.kind = PolicyKind::Combined;
        spec.targetLineUeProb = 1e-7;
        spec.rewriteThreshold = 2;
        spec.rewriteHeadroom = 2;
        spec.linesPerRegion = 16;
        policy = makePolicy(spec, *device);

        nextWriteSeconds = demand.exponential(writeRate());
    }

    double writeRate() const
    {
        return 2e-5 * static_cast<double>(config.lines);
    }

    /** Harness state beyond backend + policy. */
    void save(SnapshotSink &sink) const
    {
        saveRandom(sink, demand);
        sink.f64(nextWriteSeconds);
    }

    void load(SnapshotSource &source)
    {
        loadRandom(source, demand);
        nextWriteSeconds = source.f64();
    }

    /**
     * Advance to `horizon`, or stop right after wake number
     * `stopAfterWakes` (a checkpointable boundary). Returns the
     * cumulative wake count.
     */
    std::uint64_t run(Tick horizon, std::uint64_t wakes,
                      std::uint64_t stopAfterWakes)
    {
        while (true) {
            const Tick scrubAt = policy->nextWake();
            const Tick writeAt = secondsToTicks(nextWriteSeconds);
            if (scrubAt > horizon && writeAt > horizon)
                break;
            if (writeAt <= scrubAt) {
                device->demandWrite(demand.uniformInt(config.lines),
                                    writeAt);
                nextWriteSeconds += demand.exponential(writeRate());
            } else {
                policy->wake(*device, scrubAt);
                lastWakeTick = scrubAt;
                if (++wakes == stopAfterWakes)
                    return wakes;
            }
        }
        return wakes;
    }

    CellBackendConfig config;
    std::unique_ptr<CellBackend> device;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<ScrubPolicy> policy;
    Random demand;
    double nextWriteSeconds = 0.0;
    Tick lastWakeTick = 0;
};

/** Complete observable outcome of a cell-backend run. */
struct CellOutcome
{
    ScrubMetrics metrics;
    FaultInjectorStats faults;
    std::vector<BitVector> intended;
    std::vector<Tick> lastWrite;
    std::vector<std::uint64_t> lineWrites;
    std::vector<unsigned> trueErrors;
    std::vector<unsigned> stuckCells;
    std::vector<bool> slc;
};

CellOutcome
captureCell(const CellSim &sim, Tick horizon)
{
    CellOutcome out;
    out.metrics = sim.device->metrics();
    out.faults = sim.injector->stats();
    for (LineIndex line = 0; line < sim.device->lineCount(); ++line) {
        const Line &cells = sim.device->array().line(line);
        out.intended.push_back(cells.intendedWord());
        out.lastWrite.push_back(cells.lastWriteTick());
        out.lineWrites.push_back(cells.lineWrites());
        out.trueErrors.push_back(
            cells.trueBitErrors(horizon, sim.device->array().model()));
        out.stuckCells.push_back(cells.stuckCellCount());
        out.slc.push_back(cells.slcMode());
    }
    return out;
}

void
expectCellOutcomeEqual(const CellOutcome &a, const CellOutcome &b)
{
    expectMetricsEqual(a.metrics, b.metrics);
    expectInjectorEqual(a.faults, b.faults);
    ASSERT_EQ(a.intended.size(), b.intended.size());
    for (std::size_t line = 0; line < a.intended.size(); ++line) {
        EXPECT_EQ(a.intended[line], b.intended[line]) << "line " << line;
        EXPECT_EQ(a.lastWrite[line], b.lastWrite[line])
            << "line " << line;
        EXPECT_EQ(a.lineWrites[line], b.lineWrites[line])
            << "line " << line;
        EXPECT_EQ(a.trueErrors[line], b.trueErrors[line])
            << "line " << line;
        EXPECT_EQ(a.stuckCells[line], b.stuckCells[line])
            << "line " << line;
        EXPECT_EQ(a.slc[line], b.slc[line]) << "line " << line;
    }
}

/**
 * Run to `horizon` without interruption at `threads`; reports the
 * total wake count so the interrupted run can pick a kill point.
 */
CellOutcome
straightCell(std::uint64_t seed, unsigned threads, Tick horizon,
             std::uint64_t &totalWakes)
{
    ThreadPool::global().resize(threads);
    CellSim sim(seed);
    totalWakes = sim.run(horizon, 0, kNoStop);
    return captureCell(sim, horizon);
}

/**
 * Kill the run at wake `killAt` (checkpoint + destroy every object),
 * rebuild from scratch at `threadsAfter`, restore the snapshot, and
 * finish — on the vector kernels, or on the scalar reference
 * kernels when `simdAfter` is false.
 */
CellOutcome
resumedCell(std::uint64_t seed, unsigned threadsBefore,
            unsigned threadsAfter, Tick horizon, std::uint64_t killAt,
            std::uint64_t expectedWakes, bool simdAfter = true)
{
    const std::string path = tempPath("cell_resume.snap");

    ThreadPool::global().resize(threadsBefore);
    {
        CellSim sim(seed);
        const std::uint64_t wakes = sim.run(horizon, 0, killAt);
        EXPECT_EQ(wakes, killAt);
        writeCheckpoint(path, *sim.device, *sim.policy,
                        CheckpointMeta{0, sim.lastWakeTick, wakes,
                                       sim.policy->name()},
                        [&](SnapshotSink &sink) { sim.save(sink); });
        // `sim` dies here: the resumed run starts from cold objects,
        // exactly like a new process would.
    }

    ThreadPool::global().resize(threadsAfter);
    simd::setEnabled(simdAfter);
    CellSim sim(seed);
    const SnapshotReader reader = SnapshotReader::fromFile(path);
    const CheckpointMeta meta =
        readCheckpoint(reader, *sim.device, *sim.policy,
                       [&](SnapshotSource &source) { sim.load(source); });
    EXPECT_EQ(meta.runOrdinal, 0u);
    EXPECT_EQ(meta.wakes, killAt);
    EXPECT_EQ(meta.policyName, sim.policy->name());

    const std::uint64_t wakes = sim.run(horizon, meta.wakes, kNoStop);
    EXPECT_EQ(wakes, expectedWakes);
    std::remove(path.c_str());
    return captureCell(sim, horizon);
}

TEST_F(CellResume, KillAndResumeIsBitIdentical)
{
    const Tick horizon = 2 * kDay;
    for (const std::uint64_t seed : {3ull, 11ull}) {
        std::uint64_t totalWakes = 0;
        const CellOutcome straight =
            straightCell(seed, 1, horizon, totalWakes);
        ASSERT_GE(totalWakes, 2u);
        const std::uint64_t killAt = killPoint(seed, totalWakes);
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                         std::to_string(threads) + ", killed at wake " +
                         std::to_string(killAt) + "/" +
                         std::to_string(totalWakes));
            expectCellOutcomeEqual(
                straight, resumedCell(seed, threads, threads, horizon,
                                      killAt, totalWakes));
        }
    }
}

TEST_F(CellResume, SnapshotAtOneThreadResumesAtFour)
{
    const Tick horizon = 2 * kDay;
    std::uint64_t totalWakes = 0;
    const CellOutcome straight = straightCell(7, 1, horizon, totalWakes);
    ASSERT_GE(totalWakes, 2u);
    // Kernel dispatch is as invisible as thread count: the resumed
    // half may also run on the scalar reference kernels.
    for (const bool simdAfter : {true, false}) {
        SCOPED_TRACE(simdAfter ? "vector kernels" : "scalar kernels");
        expectCellOutcomeEqual(
            straight,
            resumedCell(7, 1, 4, horizon, killPoint(7, totalWakes),
                        totalWakes, simdAfter));
    }
}

// Analytic backend ------------------------------------------------

/** The analytic pipeline: built-in demand model, fault campaign. */
struct AnalyticSim
{
    explicit AnalyticSim(std::uint64_t seed)
    {
        config.lines = 1024;
        config.scheme = EccScheme::bch(8);
        config.demand.writesPerLinePerSecond = 1e-5;
        config.demand.readsPerLinePerSecond = 1e-4;
        config.seed = seed;
        device = std::make_unique<AnalyticBackend>(config);

        FaultCampaignConfig campaign;
        campaign.disturbFlipsPerRead = 0.05;
        campaign.burstProbPerRead = 0.01;
        campaign.burstBits = 4;
        campaign.miscorrectionProb = 0.005;
        campaign.seed = seed * 17 + 3;
        injector = std::make_unique<FaultInjector>(campaign);
        device->setFaultInjector(injector.get());

        PolicySpec spec;
        spec.kind = PolicyKind::Combined;
        spec.targetLineUeProb = 1e-7;
        spec.rewriteHeadroom = 2;
        spec.linesPerRegion = 64;
        policy = makePolicy(spec, *device);
    }

    std::uint64_t run(Tick horizon, std::uint64_t wakes,
                      std::uint64_t stopAfterWakes)
    {
        while (true) {
            const Tick at = policy->nextWake();
            if (at > horizon)
                break;
            policy->wake(*device, at);
            lastWakeTick = at;
            if (++wakes == stopAfterWakes)
                return wakes;
        }
        return wakes;
    }

    AnalyticConfig config;
    std::unique_ptr<AnalyticBackend> device;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<ScrubPolicy> policy;
    Tick lastWakeTick = 0;
};

struct AnalyticOutcome
{
    ScrubMetrics metrics;
    FaultInjectorStats faults;
    std::vector<unsigned> trueErrors;
};

AnalyticOutcome
captureAnalytic(const AnalyticSim &sim, Tick horizon)
{
    AnalyticOutcome out;
    out.metrics = sim.device->metrics();
    out.faults = sim.injector->stats();
    for (LineIndex line = 0; line < sim.device->lineCount(); ++line)
        out.trueErrors.push_back(sim.device->trueErrors(line, horizon));
    return out;
}

void
expectAnalyticOutcomeEqual(const AnalyticOutcome &a,
                           const AnalyticOutcome &b)
{
    expectMetricsEqual(a.metrics, b.metrics);
    expectInjectorEqual(a.faults, b.faults);
    ASSERT_EQ(a.trueErrors.size(), b.trueErrors.size());
    for (std::size_t line = 0; line < a.trueErrors.size(); ++line)
        EXPECT_EQ(a.trueErrors[line], b.trueErrors[line])
            << "line " << line;
}

AnalyticOutcome
resumedAnalytic(std::uint64_t seed, unsigned threads, Tick horizon,
                std::uint64_t killAt, std::uint64_t expectedWakes)
{
    const std::string path = tempPath("analytic_resume.snap");

    ThreadPool::global().resize(threads);
    {
        AnalyticSim sim(seed);
        const std::uint64_t wakes = sim.run(horizon, 0, killAt);
        EXPECT_EQ(wakes, killAt);
        writeCheckpoint(path, *sim.device, *sim.policy,
                        CheckpointMeta{0, sim.lastWakeTick, wakes,
                                       sim.policy->name()});
    }

    AnalyticSim sim(seed);
    const SnapshotReader reader = SnapshotReader::fromFile(path);
    const CheckpointMeta meta =
        readCheckpoint(reader, *sim.device, *sim.policy);
    EXPECT_EQ(meta.wakes, killAt);

    const std::uint64_t wakes = sim.run(horizon, meta.wakes, kNoStop);
    EXPECT_EQ(wakes, expectedWakes);
    std::remove(path.c_str());
    return captureAnalytic(sim, horizon);
}

TEST_F(AnalyticResume, KillAndResumeIsBitIdentical)
{
    const Tick horizon = 4 * kDay;
    for (const std::uint64_t seed : {2ull, 19ull}) {
        ThreadPool::global().resize(1);
        AnalyticSim straightSim(seed);
        const std::uint64_t totalWakes =
            straightSim.run(horizon, 0, kNoStop);
        ASSERT_GE(totalWakes, 2u);
        const AnalyticOutcome straight =
            captureAnalytic(straightSim, horizon);
        const std::uint64_t killAt = killPoint(seed, totalWakes);
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                         std::to_string(threads) + ", killed at wake " +
                         std::to_string(killAt) + "/" +
                         std::to_string(totalWakes));
            expectAnalyticOutcomeEqual(
                straight, resumedAnalytic(seed, threads, horizon,
                                          killAt, totalWakes));
        }
    }
}

// RAS-managed runs ------------------------------------------------

RasSettings
rasResumeSettings()
{
    RasSettings ras;
    ras.enabled = true;
    ras.minIntervalS = 1800.0;
    ras.maxIntervalS = 6.0 * 3600.0;
    ras.sloUePerLineDay = 5e-4;
    ras.sampleEveryS = 6.0 * 3600.0;
    ras.stepFactor = 2.0;
    ras.hysteresis = 0.25;
    ras.linesPerRegion = 64;
    return ras;
}

/**
 * A closed-loop pipeline: auto-tuning ControlledScrub over a strong
 * sweep on a drift-heavy BCH-4 device with the PPR rung and spare
 * pool provisioned. Kill/resume must carry the controller loop
 * state, the sample schedule, the PPR/spare tables, and the region
 * telemetry counters — any drift there changes later controller
 * decisions and shows up as a metrics mismatch.
 */
struct RasSim
{
    explicit RasSim(std::uint64_t seed)
    {
        config.lines = 512;
        config.scheme = EccScheme::bch(4);
        config.demand.writesPerLinePerSecond = 0.0;
        config.demand.readsPerLinePerSecond = 1e-4;
        config.seed = seed;
        config.degradation.enabled = true;
        config.degradation.maxRetries = 0;
        config.degradation.ecpRepair = false;
        // One row and one spare per line (8 per shard). Each line
        // draws on its own shard's partition (see PprRemapTable), so
        // the resumed run is bit-identical at any thread count.
        // Exhaustion fall-through is covered in ppr_ladder_test.
        config.degradation.pprSpareRows = 512;
        config.degradation.pprUeThreshold = 1;
        config.degradation.spareLines = 512;
        device = std::make_unique<AnalyticBackend>(config);
        policy = std::make_unique<ControlledScrub>(
            std::make_unique<StrongEccScrub>(secondsToTicks(3600.0)),
            *device, rasResumeSettings(), /*auto_tune=*/true,
            "resume");
    }

    std::uint64_t run(Tick horizon, std::uint64_t wakes,
                      std::uint64_t stopAfterWakes)
    {
        while (true) {
            const Tick at = policy->nextWake();
            if (at > horizon)
                break;
            policy->wake(*device, at);
            lastWakeTick = at;
            if (++wakes == stopAfterWakes)
                return wakes;
        }
        return wakes;
    }

    AnalyticConfig config;
    std::unique_ptr<AnalyticBackend> device;
    std::unique_ptr<ControlledScrub> policy;
    Tick lastWakeTick = 0;
};

struct RasOutcome
{
    ScrubMetrics metrics;
    double intervalS = 0.0;
    unsigned calmSamples = 0;
    std::uint64_t pprRemapped = 0;
    std::vector<bool> remapped;
    std::vector<RegionCounters> regions;
};

RasOutcome
captureRas(const RasSim &sim)
{
    RasOutcome out;
    out.metrics = sim.device->metrics();
    out.intervalS = sim.policy->controlPlane().scrubIntervalS();
    out.calmSamples = sim.policy->controller().calmSamples();
    out.pprRemapped = sim.device->ppr()->remappedCount();
    for (LineIndex line = 0; line < sim.device->lineCount(); ++line)
        out.remapped.push_back(
            sim.device->ppr()->isRemapped(line));
    const RegionTelemetry &telemetry =
        sim.policy->controlPlane().telemetry();
    for (std::uint64_t r = 0; r < telemetry.regionCount(); ++r)
        out.regions.push_back(telemetry.region(r));
    return out;
}

void
expectRasOutcomeEqual(const RasOutcome &a, const RasOutcome &b)
{
    expectMetricsEqual(a.metrics, b.metrics);
    EXPECT_EQ(a.intervalS, b.intervalS);
    EXPECT_EQ(a.calmSamples, b.calmSamples);
    EXPECT_EQ(a.pprRemapped, b.pprRemapped);
    EXPECT_EQ(a.remapped, b.remapped);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t r = 0; r < a.regions.size(); ++r) {
        EXPECT_EQ(a.regions[r].correctedErrors,
                  b.regions[r].correctedErrors) << "region " << r;
        EXPECT_EQ(a.regions[r].uncorrectable,
                  b.regions[r].uncorrectable) << "region " << r;
        EXPECT_EQ(a.regions[r].ladderEscalations,
                  b.regions[r].ladderEscalations) << "region " << r;
        EXPECT_EQ(a.regions[r].scrubWrites,
                  b.regions[r].scrubWrites) << "region " << r;
        EXPECT_EQ(a.regions[r].energyPj, b.regions[r].energyPj)
            << "region " << r;
    }
}

RasOutcome
resumedRas(std::uint64_t seed, unsigned threadsBefore,
           unsigned threadsAfter, Tick horizon, std::uint64_t killAt,
           std::uint64_t expectedWakes)
{
    const std::string path = tempPath("ras_resume.snap");

    ThreadPool::global().resize(threadsBefore);
    {
        RasSim sim(seed);
        const std::uint64_t wakes = sim.run(horizon, 0, killAt);
        EXPECT_EQ(wakes, killAt);
        writeCheckpoint(path, *sim.device, *sim.policy,
                        CheckpointMeta{0, sim.lastWakeTick, wakes,
                                       sim.policy->name()});
    }

    ThreadPool::global().resize(threadsAfter);
    RasSim sim(seed);
    const SnapshotReader reader = SnapshotReader::fromFile(path);
    const CheckpointMeta meta =
        readCheckpoint(reader, *sim.device, *sim.policy);
    EXPECT_EQ(meta.wakes, killAt);
    EXPECT_EQ(meta.policyName, sim.policy->name());

    const std::uint64_t wakes = sim.run(horizon, meta.wakes, kNoStop);
    EXPECT_EQ(wakes, expectedWakes);
    std::remove(path.c_str());
    return captureRas(sim);
}

class RasResume : public ResumeTest {};

TEST_F(RasResume, ControlledKillAndResumeIsBitIdentical)
{
    const Tick horizon = 10 * kDay;
    ThreadPool::global().resize(1);
    RasSim straightSim(23);
    const std::uint64_t totalWakes =
        straightSim.run(horizon, 0, kNoStop);
    ASSERT_GE(totalWakes, 2u);
    const RasOutcome straight = captureRas(straightSim);

    // The scenario must actually exercise what it claims to protect:
    // the controller moved the interval and the PPR rung fired.
    EXPECT_NE(straight.intervalS, 3600.0);
    EXPECT_GT(straight.pprRemapped, 0u);
    // ... and leaves rows and spares over, so a resume that lost
    // the partitions' usage would show as a remaining-count diff.
    EXPECT_GT(straight.metrics.pprSparesRemaining, 0u);
    EXPECT_GT(straight.metrics.sparesRemaining, 0u);

    const std::uint64_t killAt = killPoint(23, totalWakes);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads) +
                     ", killed at wake " + std::to_string(killAt) +
                     "/" + std::to_string(totalWakes));
        expectRasOutcomeEqual(
            straight, resumedRas(23, threads, threads, horizon,
                                 killAt, totalWakes));
    }

    // Thread count changing across the kill must be invisible too.
    expectRasOutcomeEqual(straight,
                          resumedRas(23, 1, 4, horizon, killAt,
                                     totalWakes));
}

/** Cell-accurate variant: stuck-cell wear drives the PPR rung. */
struct RasCellSim
{
    explicit RasCellSim(std::uint64_t seed)
    {
        config.lines = 96;
        config.scheme = EccScheme::bch(4);
        config.ecpEntries = 0;
        config.seed = seed;
        config.degradation.enabled = true;
        config.degradation.maxRetries = 0;
        // One row per line (two per shard of 2 lines), and a spare
        // pool with a >2x margin over the ~450 retirements of this
        // horizon (retirement can repeat per address). Each line
        // draws on its own shard's partition, as in RasSim above.
        config.degradation.pprSpareRows = 96;
        config.degradation.pprUeThreshold = 1;
        config.degradation.spareLines = 1024;
        device = std::make_unique<CellBackend>(config);

        FaultCampaignConfig campaign;
        campaign.stuckPerWrite = 1.0;
        campaign.seed = seed * 13 + 1;
        injector = std::make_unique<FaultInjector>(campaign);
        device->setFaultInjector(injector.get());

        policy = std::make_unique<ControlledScrub>(
            std::make_unique<StrongEccScrub>(secondsToTicks(3600.0)),
            *device, rasResumeSettings(), /*auto_tune=*/true,
            "cell_resume");
    }

    std::uint64_t run(Tick horizon, std::uint64_t wakes,
                      std::uint64_t stopAfterWakes)
    {
        while (true) {
            const Tick at = policy->nextWake();
            if (at > horizon)
                break;
            policy->wake(*device, at);
            lastWakeTick = at;
            if (++wakes == stopAfterWakes)
                return wakes;
        }
        return wakes;
    }

    CellBackendConfig config;
    std::unique_ptr<CellBackend> device;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<ControlledScrub> policy;
    Tick lastWakeTick = 0;
};

TEST_F(RasResume, CellControlledKillAndResumeIsBitIdentical)
{
    const Tick horizon = 4 * kDay;
    ThreadPool::global().resize(1);
    RasCellSim straightSim(29);
    const std::uint64_t totalWakes =
        straightSim.run(horizon, 0, kNoStop);
    ASSERT_GE(totalWakes, 2u);
    const ScrubMetrics straight = straightSim.device->metrics();
    const double straightInterval =
        straightSim.policy->controlPlane().scrubIntervalS();
    EXPECT_GT(straight.uePprRemapped, 0u);
    // Spares are left over, so a resume that lost the partitions'
    // usage would show as a remaining-count diff.
    EXPECT_GT(straight.sparesRemaining, 0u);

    const std::uint64_t killAt = killPoint(29, totalWakes);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const std::string path = tempPath("ras_cell_resume.snap");
        ThreadPool::global().resize(threads);
        {
            RasCellSim sim(29);
            const std::uint64_t wakes = sim.run(horizon, 0, killAt);
            EXPECT_EQ(wakes, killAt);
            writeCheckpoint(path, *sim.device, *sim.policy,
                            CheckpointMeta{0, sim.lastWakeTick,
                                           wakes,
                                           sim.policy->name()});
        }
        RasCellSim sim(29);
        const SnapshotReader reader = SnapshotReader::fromFile(path);
        const CheckpointMeta meta =
            readCheckpoint(reader, *sim.device, *sim.policy);
        const std::uint64_t wakes =
            sim.run(horizon, meta.wakes, kNoStop);
        EXPECT_EQ(wakes, totalWakes);
        expectMetricsEqual(straight, sim.device->metrics());
        EXPECT_EQ(straightInterval,
                  sim.policy->controlPlane().scrubIntervalS());
        std::remove(path.c_str());
    }
}

TEST_F(RasResume, TelemetryAttachMismatchIsRejected)
{
    // The backend section records whether telemetry counters were
    // attached; restoring into a mismatched topology must be refused
    // as corrupt state, not silently dropped or misparsed.
    AnalyticConfig config;
    config.lines = 64;
    config.scheme = EccScheme::bch(4);
    config.seed = 3;

    SnapshotSink withTelemetry;
    {
        AnalyticBackend backend(config);
        StrongEccScrub policy(secondsToTicks(3600.0));
        RasControlPlane plane(backend, policy, rasResumeSettings());
        backend.checkpointSave(withTelemetry);
    }
    {
        AnalyticBackend bare(config);
        SnapshotSource source(withTelemetry.bytes().data(),
                              withTelemetry.bytes().size(),
                              "mismatch");
        EXPECT_EXIT(bare.checkpointLoad(source),
                    ::testing::ExitedWithCode(1),
                    "no telemetry sink is attached");
    }

    SnapshotSink bareSink;
    {
        AnalyticBackend bare(config);
        bare.checkpointSave(bareSink);
    }
    AnalyticBackend backend(config);
    StrongEccScrub policy(secondsToTicks(3600.0));
    RasControlPlane plane(backend, policy, rasResumeSettings());
    SnapshotSource source(bareSink.bytes().data(),
                          bareSink.bytes().size(), "mismatch");
    EXPECT_EXIT(backend.checkpointLoad(source),
                ::testing::ExitedWithCode(1),
                "snapshot has no telemetry state");
}

// CheckpointRuntime end to end ------------------------------------

AnalyticConfig
runtimeConfig()
{
    AnalyticConfig config;
    config.lines = 512;
    config.scheme = EccScheme::bch(4);
    config.demand.writesPerLinePerSecond = 1e-5;
    config.seed = 99;
    return config;
}

PolicySpec
runtimeSpec()
{
    PolicySpec spec;
    spec.kind = PolicyKind::Basic;
    spec.interval = kHour / 2;
    return spec;
}

TEST_F(RuntimeResume, PeriodicCheckpointRestoresToIdenticalEnd)
{
    const std::string path = tempPath("runtime_periodic.snap");
    const Tick horizon = 6 * kHour;
    CheckpointRuntime &runtime = CheckpointRuntime::global();

    // Uninterrupted reference (runtime unconfigured: runCheckpointed
    // degrades to a plain wake loop).
    runtime.resetForTest();
    AnalyticBackend reference(runtimeConfig());
    const auto referencePolicy = makePolicy(runtimeSpec(), reference);
    const std::uint64_t referenceWakes =
        runCheckpointed(reference, *referencePolicy, horizon);
    EXPECT_GT(referenceWakes, 0u);

    // Same run with hourly periodic snapshots: identical results,
    // and the last periodic snapshot is left on disk.
    runtime.resetForTest();
    CliOptions periodic;
    periodic.checkpointPath = path;
    periodic.checkpointEverySimHours = 1.0;
    runtime.configure(periodic);
    AnalyticBackend checkpointed(runtimeConfig());
    const auto checkpointedPolicy =
        makePolicy(runtimeSpec(), checkpointed);
    EXPECT_EQ(runCheckpointed(checkpointed, *checkpointedPolicy, horizon),
              referenceWakes);
    expectMetricsEqual(reference.metrics(), checkpointed.metrics());
    ASSERT_TRUE(fileExists(path));

    // Resume from that snapshot into cold objects and finish: the
    // wake total and every counter match the uninterrupted run.
    runtime.resetForTest();
    CliOptions resume;
    resume.resumePath = path;
    runtime.configure(resume);
    AnalyticBackend resumed(runtimeConfig());
    const auto resumedPolicy = makePolicy(runtimeSpec(), resumed);
    EXPECT_EQ(runCheckpointed(resumed, *resumedPolicy, horizon),
              referenceWakes);
    expectMetricsEqual(reference.metrics(), resumed.metrics());

    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST_F(RuntimeResume, SecondRunOrdinalRestoresIntoTheRightRun)
{
    // A two-run binary checkpointed during its second run: on resume
    // the first run replays from scratch, the second restores.
    const std::string path = tempPath("runtime_ordinal.snap");
    const Tick horizon = 4 * kHour;
    CheckpointRuntime &runtime = CheckpointRuntime::global();

    auto runPair = [&](double everyHours,
                       const std::string &resumeFrom) -> ScrubMetrics {
        runtime.resetForTest();
        CliOptions opts;
        if (everyHours > 0.0) {
            opts.checkpointPath = path;
            opts.checkpointEverySimHours = everyHours;
        }
        opts.resumePath = resumeFrom;
        runtime.configure(opts);
        ScrubMetrics second;
        for (std::uint64_t run = 0; run < 2; ++run) {
            AnalyticConfig config = runtimeConfig();
            config.seed = 99 + run;
            AnalyticBackend device(config);
            const auto policy = makePolicy(runtimeSpec(), device);
            runCheckpointed(device, *policy, horizon);
            second = device.metrics();
        }
        return second;
    };

    const ScrubMetrics straight = runPair(0.0, "");
    // Leaves the last periodic snapshot (taken in run ordinal 1).
    runPair(1.0, "");
    ASSERT_TRUE(fileExists(path));
    const ScrubMetrics resumed = runPair(0.0, path);
    expectMetricsEqual(straight, resumed);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST_F(RuntimeResume, SignalFlushesAResumableCheckpointAndExitsZero)
{
    const std::string path = tempPath("runtime_signal.snap");
    std::remove(path.c_str());
    const Tick horizon = 6 * kHour;

    // The child process runs a few wakes, receives SIGINT, and must
    // exit 0 after flushing a final snapshot. poll() only reacts at
    // the next wake boundary, so the flag is raised mid-run.
    EXPECT_EXIT(
        {
            CheckpointRuntime &runtime = CheckpointRuntime::global();
            runtime.resetForTest();
            CliOptions opts;
            opts.checkpointPath = path;
            runtime.configure(opts);
            AnalyticBackend device(runtimeConfig());
            const auto policy = makePolicy(runtimeSpec(), device);
            const std::uint64_t ordinal = runtime.beginRun();
            std::uint64_t wakes = 0;
            while (true) {
                const Tick at = policy->nextWake();
                if (at > horizon)
                    break;
                policy->wake(device, at);
                ++wakes;
                if (wakes == 3)
                    std::raise(SIGINT);
                runtime.poll(device, *policy,
                             CheckpointMeta{ordinal, at, wakes,
                                            policy->name()});
            }
        },
        ::testing::ExitedWithCode(0), "interrupted at sim-time");

    // The snapshot the dying child flushed restores cleanly and at
    // the wake it was interrupted at.
    ASSERT_TRUE(fileExists(path));
    AnalyticBackend device(runtimeConfig());
    const auto policy = makePolicy(runtimeSpec(), device);
    const SnapshotReader reader = SnapshotReader::fromFile(path);
    const CheckpointMeta meta = readCheckpoint(reader, device, *policy);
    EXPECT_EQ(meta.wakes, 3u);

    // ...and the resumed run finishes identical to an uninterrupted
    // one.
    const std::uint64_t wakes =
        [&] {
            std::uint64_t total = meta.wakes;
            while (true) {
                const Tick at = policy->nextWake();
                if (at > horizon)
                    break;
                policy->wake(device, at);
                ++total;
            }
            return total;
        }();
    AnalyticBackend straight(runtimeConfig());
    const auto straightPolicy = makePolicy(runtimeSpec(), straight);
    EXPECT_EQ(runScrub(straight, *straightPolicy, horizon), wakes);
    expectMetricsEqual(straight.metrics(), device.metrics());
    std::remove(path.c_str());
}

TEST_F(RuntimeResume, UnsupportedHarnessRejectsCheckpointFlags)
{
    EXPECT_EXIT(
        {
            CheckpointRuntime &runtime = CheckpointRuntime::global();
            runtime.resetForTest();
            CliOptions opts;
            opts.checkpointPath = "x.snap";
            runtime.configure(opts, /*supported=*/false);
        },
        ::testing::ExitedWithCode(1), "does not support");
}

} // namespace
} // namespace pcmscrub
