/**
 * @file
 * The determinism contract of the sharded parallel engine: a run at
 * any thread count is bit-identical to the serial run — every
 * ScrubMetrics counter (including floating-point energy sums), the
 * fault-injector bookkeeping, and the final per-line device state.
 *
 * The tests drive full pipelines (combined policy, demand writes,
 * fault campaign attached) on both backends at 1, 2, 4, and 8
 * threads and compare the complete outcome against the 1-thread
 * baseline. Exact equality is intentional: any nondeterminism in
 * shard ownership, RNG stream use, or reduction order shows up here
 * as a hard failure, not a statistical drift.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "pcm/array.hh"
#include "faults/fault_injector.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/factory.hh"

namespace pcmscrub {
namespace {

constexpr Tick kHour = secondsToTicks(3600.0);
constexpr Tick kDay = secondsToTicks(86400.0);

const unsigned kThreadCounts[] = {1, 2, 4, 8};

/** Restore the global pool to serial so other tests see the default. */
class SerialAfter : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::global().resize(1); }
};

class ParallelDeterminismCell : public SerialAfter {};
class ParallelDeterminismAnalytic : public SerialAfter {};

void
expectEnergyEqual(const EnergyAccount &a, const EnergyAccount &b)
{
    for (unsigned c = 0;
         c < static_cast<unsigned>(EnergyCategory::NumCategories); ++c) {
        const auto category = static_cast<EnergyCategory>(c);
        // Bit-identical, not approximately equal: per-shard partial
        // sums merge in ascending shard order at any thread count.
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
    EXPECT_EQ(a.droppedInjections, b.droppedInjections);
}

// Cell-accurate backend -------------------------------------------

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

void
expectCellOutcomeEqual(const CellOutcome &a, const CellOutcome &b)
{
    expectMetricsEqual(a.metrics, b.metrics);
    expectInjectorEqual(a.faults, b.faults);
    ASSERT_EQ(a.intended.size(), b.intended.size());
    for (std::size_t line = 0; line < a.intended.size(); ++line) {
        EXPECT_EQ(a.intended[line], b.intended[line]) << "line " << line;
        EXPECT_EQ(a.lastWrite[line], b.lastWrite[line]) << "line " << line;
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
 * One full cell-backend pipeline: combined policy, Poisson demand
 * writes, and a fault campaign injecting stuck cells, disturb flips,
 * bursts, and miscorrections. Everything is derived from `seed`.
 */
CellOutcome
runCellPipeline(std::uint64_t seed, unsigned threads,
                bool heavy_faults = false)
{
    ThreadPool::global().resize(threads);

    CellBackendConfig config;
    config.lines = 192;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 4;
    config.seed = seed;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 2;
    // One spare per shard (64 shards of 3 lines each).
    config.degradation.spareLines = 64;
    config.degradation.slcFallback = true;
    if (heavy_faults) {
        // A saturating campaign retires lines wholesale and drains
        // the pool even at two spares per line (a line may retire
        // again and again). The pool is split into one partition per
        // shard, and a line retires only into its own shard's
        // partition, so which lines win the last spares is fixed by
        // the configuration, not by thread arrival order.
        config.degradation.spareLines = 2 * config.lines;
    }
    CellBackend device(config);

    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 0.05;
    campaign.disturbFlipsPerRead = 0.1;
    campaign.burstProbPerRead = 0.02;
    campaign.burstBits = 6;
    campaign.miscorrectionProb = 0.01;
    campaign.metadataCorruptionProb = 0.01;
    campaign.seed = seed * 31 + 5;
    if (heavy_faults) {
        // Drive the batched deposit paths hard: stuck budgets large
        // enough to saturate whole lines (exercising the drop
        // accounting), Poisson disturb rates past the cached-exp
        // fast path, and bursts wide enough to straddle word
        // boundaries.
        campaign.stuckPerWrite = 64.0;
        campaign.disturbFlipsPerRead = 1.5;
        campaign.burstProbPerRead = 0.5;
        campaign.burstBits = 13;
    }
    FaultInjector injector(campaign);
    device.setFaultInjector(&injector);

    PolicySpec spec;
    spec.kind = PolicyKind::Combined;
    spec.targetLineUeProb = 1e-7;
    spec.rewriteThreshold = 2;
    spec.rewriteHeadroom = 2;
    spec.linesPerRegion = 16;
    const auto policy = makePolicy(spec, device);

    // Interleave Poisson demand writes with policy wakes; the write
    // sequence is a function of `seed` alone.
    const Tick horizon = 2 * kDay;
    Random demand(seed + 1);
    const double writeRate = 2e-5; // per line per second
    double nextWrite =
        demand.exponential(writeRate * static_cast<double>(config.lines));
    while (true) {
        const Tick scrubAt = policy->nextWake();
        const Tick writeAt = secondsToTicks(nextWrite);
        if (scrubAt > horizon && writeAt > horizon)
            break;
        if (writeAt <= scrubAt) {
            device.demandWrite(demand.uniformInt(config.lines), writeAt);
            nextWrite += demand.exponential(
                writeRate * static_cast<double>(config.lines));
        } else {
            policy->wake(device, scrubAt);
        }
    }

    CellOutcome out;
    out.metrics = device.metrics();
    out.faults = injector.stats();
    for (LineIndex line = 0; line < device.lineCount(); ++line) {
        const Line &cells = device.array().line(line);
        out.intended.push_back(cells.intendedWord());
        out.lastWrite.push_back(cells.lastWriteTick());
        out.lineWrites.push_back(cells.lineWrites());
        out.trueErrors.push_back(
            cells.trueBitErrors(horizon, device.array().model()));
        out.stuckCells.push_back(cells.stuckCellCount());
        out.slc.push_back(cells.slcMode());
    }
    return out;
}

TEST_F(ParallelDeterminismCell, BitIdenticalAtAnyThreadCount)
{
    for (const std::uint64_t seed : {3ull, 11ull, 42ull}) {
        const CellOutcome serial = runCellPipeline(seed, 1);
        for (const unsigned threads : kThreadCounts) {
            if (threads == 1)
                continue;
            SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                         std::to_string(threads));
            expectCellOutcomeEqual(serial,
                                   runCellPipeline(seed, threads));
        }
    }
}

TEST_F(ParallelDeterminismCell, HeavyFaultBatchingBitIdentical)
{
    // The saturating campaign forces every batched fault mechanism
    // at once — full-line stuck saturation (dropped injections),
    // multi-flip Poisson disturb, word-straddling bursts — and the
    // outcome must still not depend on how shards land on threads.
    const CellOutcome serial =
        runCellPipeline(13, 1, /*heavy_faults=*/true);
    // A campaign this hot must actually saturate lines; otherwise the
    // drop-accounting comparison below is vacuous.
    EXPECT_GT(serial.faults.droppedInjections, 0u);
    // ... and must run the spare pool dry, so the comparison covers
    // exhausted partitions too.
    EXPECT_EQ(serial.metrics.sparesRemaining, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectCellOutcomeEqual(
            serial, runCellPipeline(13, threads, /*heavy_faults=*/true));
    }
}

TEST_F(ParallelDeterminismCell, RepeatedSerialRunsAreIdentical)
{
    // Sanity anchor: the pipeline itself is deterministic before any
    // parallelism enters the picture.
    expectCellOutcomeEqual(runCellPipeline(7, 1), runCellPipeline(7, 1));
}

/**
 * Serialized array bytes plus the reduced program stats after a
 * sharded warm-up write: the complete observable outcome of
 * CellArray::writeRandomAll.
 */
struct WarmupOutcome
{
    LineProgramStats stats;
    std::vector<std::uint8_t> bytes;
};

WarmupOutcome
runWarmup(std::uint64_t seed, unsigned threads)
{
    ThreadPool::global().resize(threads);
    DeviceConfig config;
    CellArray array(96, 592, config, seed);
    WarmupOutcome out;
    out.stats = array.writeRandomAll(secondsToTicks(5.0));
    SnapshotSink sink;
    array.saveState(sink);
    out.bytes = sink.takeBytes();
    return out;
}

TEST_F(ParallelDeterminismCell, WriteRandomAllBitIdentical)
{
    // Warm-up writes draw from per-line counter-based streams, so the
    // serialized cell state — every float of it — must not depend on
    // how lines land on worker threads.
    for (const std::uint64_t seed : {5ull, 21ull}) {
        const WarmupOutcome serial = runWarmup(seed, 1);
        for (const unsigned threads : kThreadCounts) {
            if (threads == 1)
                continue;
            SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                         std::to_string(threads));
            const WarmupOutcome parallel = runWarmup(seed, threads);
            EXPECT_EQ(serial.stats.cellsProgrammed,
                      parallel.stats.cellsProgrammed);
            EXPECT_EQ(serial.stats.totalIterations,
                      parallel.stats.totalIterations);
            EXPECT_EQ(serial.stats.cellsWornOut,
                      parallel.stats.cellsWornOut);
            EXPECT_EQ(serial.bytes, parallel.bytes);
        }
    }
}

TEST_F(ParallelDeterminismCell, ShardPlanIgnoresThreadCount)
{
    CellBackendConfig config;
    config.lines = 4096;
    config.scheme = EccScheme::bch(4);
    config.seed = 1;

    ThreadPool::global().resize(1);
    CellBackend serial(config);
    ThreadPool::global().resize(8);
    CellBackend parallel(config);

    ASSERT_EQ(serial.shardPlan().count(), parallel.shardPlan().count());
    for (std::size_t s = 0; s < serial.shardPlan().count(); ++s) {
        EXPECT_EQ(serial.shardPlan().range(s).begin,
                  parallel.shardPlan().range(s).begin);
        EXPECT_EQ(serial.shardPlan().range(s).end,
                  parallel.shardPlan().range(s).end);
    }
}

// Analytic backend ------------------------------------------------

/** Complete observable outcome of an analytic-backend run. */
struct AnalyticOutcome
{
    ScrubMetrics metrics;
    FaultInjectorStats faults;
    std::vector<unsigned> trueErrors;
};

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
runAnalyticPipeline(std::uint64_t seed, unsigned threads,
                    PolicyKind kind)
{
    ThreadPool::global().resize(threads);

    AnalyticConfig config;
    config.lines = 2048;
    config.scheme = EccScheme::bch(8);
    config.demand.writesPerLinePerSecond = 1e-5;
    config.demand.readsPerLinePerSecond = 1e-4;
    config.seed = seed;
    AnalyticBackend device(config);

    FaultCampaignConfig campaign;
    campaign.disturbFlipsPerRead = 0.05;
    campaign.burstProbPerRead = 0.01;
    campaign.burstBits = 4;
    campaign.miscorrectionProb = 0.005;
    campaign.seed = seed * 17 + 3;
    FaultInjector injector(campaign);
    device.setFaultInjector(&injector);

    PolicySpec spec;
    spec.kind = kind;
    spec.interval = 6 * kHour;
    spec.targetLineUeProb = 1e-7;
    spec.rewriteThreshold = 6;
    spec.rewriteHeadroom = 2;
    spec.linesPerRegion = 64;
    const auto policy = makePolicy(spec, device);
    runScrub(device, *policy, 4 * kDay);

    AnalyticOutcome out;
    out.metrics = device.metrics();
    out.faults = injector.stats();
    for (LineIndex line = 0; line < device.lineCount(); ++line)
        out.trueErrors.push_back(device.trueErrors(line, 4 * kDay));
    return out;
}

TEST_F(ParallelDeterminismAnalytic, BitIdenticalAtAnyThreadCount)
{
    for (const std::uint64_t seed : {2ull, 19ull}) {
        const AnalyticOutcome serial =
            runAnalyticPipeline(seed, 1, PolicyKind::Combined);
        for (const unsigned threads : kThreadCounts) {
            if (threads == 1)
                continue;
            SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                         std::to_string(threads));
            expectAnalyticOutcomeEqual(
                serial, runAnalyticPipeline(seed, threads,
                                            PolicyKind::Combined));
        }
    }
}

TEST_F(ParallelDeterminismAnalytic, SweepFamilyAlsoBitIdentical)
{
    // The plain periodic sweep exercises the SweepScrub parallel
    // loop rather than the adaptive region scheduler.
    const AnalyticOutcome serial =
        runAnalyticPipeline(23, 1, PolicyKind::Threshold);
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectAnalyticOutcomeEqual(
            serial, runAnalyticPipeline(23, threads,
                                        PolicyKind::Threshold));
    }
}

} // namespace
} // namespace pcmscrub
