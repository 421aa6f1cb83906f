/**
 * @file
 * Tests for the drift model's process-wide table store: which models
 * share a table, what keeps two tables apart, the per-model prewarm
 * contract, and one build under concurrent requests.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "pcm/drift_model.hh"

namespace pcmscrub {
namespace {

constexpr double kLogAgeStep = 0.005;
constexpr unsigned kTableSize = 2202; // 11 log-decades + 2 points

/** The bulk quantile of 8 tracked weak cells in a 296-cell line. */
constexpr double kQuantile = 1.0 - 8.0 / 296.0;

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Every grid age of a table, for a config's t0. */
std::vector<double>
gridAges(const DeviceConfig &config)
{
    std::vector<double> ages;
    for (unsigned i = 0; i < kTableSize; ++i) {
        ages.push_back(config.driftT0Seconds *
                       std::pow(10.0, static_cast<double>(i) * kLogAgeStep));
    }
    return ages;
}

/**
 * A config no earlier call returned, so its tables are not in the
 * store yet whatever ran before in this process.
 */
DeviceConfig
freshConfig()
{
    // Steps far wider than the one-ulp moves the tests make.
    static double sigmaLogR = DeviceConfig{}.sigmaLogR;
    sigmaLogR += 1e-6;
    DeviceConfig config;
    config.sigmaLogR = sigmaLogR;
    return config;
}

TEST(DriftTableStore, EqualInputsShareOneTable)
{
    const DeviceConfig config;
    const DriftModel a{config};
    a.prewarm();
    a.prewarmBulk(kQuantile);
    const std::size_t built = DriftModel::tablesBuilt();
    const DriftModel b{config};
    b.prewarm();
    b.prewarmBulk(kQuantile);
    EXPECT_EQ(DriftModel::tablesBuilt(), built);
    EXPECT_EQ(&a.bulkTable(kQuantile), &b.bulkTable(kQuantile));
    for (const double t : gridAges(config)) {
        ASSERT_EQ(bits(a.cellErrorProb(t)), bits(b.cellErrorProb(t)))
            << "t=" << t;
        ASSERT_EQ(bits(a.cellMarginFlagProb(t)),
                  bits(b.cellMarginFlagProb(t)))
            << "t=" << t;
        ASSERT_EQ(bits(a.bulkCellErrorProb(t, kQuantile)),
                  bits(b.bulkCellErrorProb(t, kQuantile)))
            << "t=" << t;
    }
}

/** One DeviceConfig field, by reference. */
using Field = std::function<double &(DeviceConfig &)>;

TEST(DriftTableStore, EveryKeyFieldSeparatesTables)
{
    const DeviceConfig base = freshConfig();
    const DriftModel reference{base};
    reference.prewarmBulk(kQuantile);
    std::vector<std::pair<const char *, Field>> fields = {
        {"driftT0Seconds", [](DeviceConfig &c) -> double & {
             return c.driftT0Seconds;
         }},
        {"driftSpeedSigmaLn", [](DeviceConfig &c) -> double & {
             return c.driftSpeedSigmaLn;
         }},
        {"driftSigmaRatio", [](DeviceConfig &c) -> double & {
             return c.driftSigmaRatio;
         }},
        {"sigmaLogR", [](DeviceConfig &c) -> double & {
             return c.sigmaLogR;
         }},
        {"marginBandLogR", [](DeviceConfig &c) -> double & {
             return c.marginBandLogR;
         }},
    };
    for (unsigned l = 0; l < mlcLevels; ++l) {
        fields.push_back({"driftMu", [l](DeviceConfig &c) -> double & {
                              return c.driftMu[l];
                          }});
        fields.push_back({"levelMeanLogR",
                          [l](DeviceConfig &c) -> double & {
                              return c.levelMeanLogR[l];
                          }});
    }
    for (unsigned l = 0; l + 1 < mlcLevels; ++l) {
        fields.push_back({"readThresholdLogR",
                          [l](DeviceConfig &c) -> double & {
                              return c.readThresholdLogR[l];
                          }});
    }
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<const DriftModel::AgeTable *> seen{
        &reference.bulkTable(kQuantile)};
    for (std::size_t i = 0; i < fields.size(); ++i) {
        DeviceConfig moved = base;
        double &field = fields[i].second(moved);
        field = std::nextafter(field, inf);
        const std::size_t built = DriftModel::tablesBuilt();
        const DriftModel model{moved};
        model.prewarmBulk(kQuantile);
        EXPECT_EQ(DriftModel::tablesBuilt(), built + 1)
            << fields[i].first << " (field " << i << ")";
        for (const DriftModel::AgeTable *other : seen) {
            EXPECT_NE(&model.bulkTable(kQuantile), other)
                << fields[i].first << " (field " << i << ")";
        }
        seen.push_back(&model.bulkTable(kQuantile));
    }
}

TEST(DriftTableStore, UnrelatedFieldsShareTables)
{
    const DeviceConfig base = freshConfig();
    const DriftModel reference{base};
    reference.prewarmBulk(kQuantile);
    const std::size_t built = DriftModel::tablesBuilt();
    DeviceConfig endurance = base;
    endurance.enduranceMedian *= 2.0;
    DeviceConfig energy = base;
    energy.readEnergyPerCell *= 2.0;
    for (const DeviceConfig &config : {endurance, energy}) {
        const DriftModel model{config};
        model.prewarmBulk(kQuantile);
        EXPECT_EQ(&model.bulkTable(kQuantile),
                  &reference.bulkTable(kQuantile));
    }
    EXPECT_EQ(DriftModel::tablesBuilt(), built);
}

TEST(DriftTableStore, QuantilesOneUlpApartAreDistinct)
{
    const DeviceConfig config = freshConfig();
    const double below = std::nextafter(kQuantile, 0.0);
    const std::size_t built = DriftModel::tablesBuilt();
    const DriftModel a{config};
    const DriftModel b{config};
    a.prewarmBulk(kQuantile);
    b.prewarmBulk(below);
    EXPECT_EQ(DriftModel::tablesBuilt(), built + 2);
    EXPECT_NE(&a.bulkTable(kQuantile), &b.bulkTable(below));
    // Within one model a quantile still reads the table of the first
    // one prewarmed at the same millionth; the store itself never
    // rounds.
    a.prewarmBulk(below);
    EXPECT_EQ(&a.bulkTable(below), &a.bulkTable(kQuantile));
    EXPECT_EQ(DriftModel::tablesBuilt(), built + 2);
}

TEST(DriftTableStore, WholePopulationBulkIsTheCellErrorTable)
{
    const DeviceConfig config;
    const DriftModel model{config};
    model.prewarm();
    const std::size_t built = DriftModel::tablesBuilt();
    model.prewarmBulk(1.0);
    EXPECT_EQ(DriftModel::tablesBuilt(), built);
    std::vector<double> ages = gridAges(config);
    for (double t = 0.01; t < 1e13; t *= 1.37)
        ages.push_back(t);
    for (const double t : ages) {
        ASSERT_EQ(bits(model.bulkCellErrorProb(t, 1.0)),
                  bits(model.cellErrorProb(t)))
            << "t=" << t;
    }
}

TEST(DriftTableStoreDeath, ModelAssertsBeforeItsOwnPrewarm)
{
    const DeviceConfig config;
    const DriftModel a{config};
    a.prewarm();
    a.prewarmBulk(kQuantile);
    const DriftModel b{config};
    EXPECT_DEATH(b.cellErrorProb(3600.0), "prewarm");
    EXPECT_DEATH(b.cellMarginFlagProb(3600.0), "prewarm");
    EXPECT_DEATH(b.bulkCellErrorProb(3600.0, kQuantile), "prewarmBulk");
    // The whole-population bulk entry is the cell-error table, but
    // prewarming it as a bulk does not make cellErrorProb readable.
    b.prewarmBulk(1.0);
    EXPECT_DEATH(b.cellErrorProb(3600.0), "prewarm");
}

/**
 * 64 pool tasks at 4 threads each prewarm a fresh model of one new
 * config: the store builds each table once, and every task reads the
 * same table at the same address.
 */
TEST(DriftTableStoreParallel, ConcurrentPrewarmBuildsEachTableOnce)
{
    const DeviceConfig config = freshConfig();
    const std::vector<double> ages = gridAges(config);
    constexpr std::size_t kTasks = 64;
    std::vector<const DriftModel::AgeTable *> population(kTasks);
    std::vector<const DriftModel::AgeTable *> bulk(kTasks);
    std::vector<std::vector<double>> values(kTasks);
    const std::size_t built = DriftModel::tablesBuilt();
    ThreadPool::global().resize(4);
    ThreadPool::global().run(kTasks, [&](std::size_t task) {
        const DriftModel model{config};
        model.prewarm();
        model.prewarmBulk(1.0);
        model.prewarmBulk(kQuantile);
        population[task] = &model.bulkTable(1.0);
        bulk[task] = &model.bulkTable(kQuantile);
        for (const double t : ages) {
            values[task].push_back(model.cellErrorProb(t));
            values[task].push_back(model.cellMarginFlagProb(t));
            values[task].push_back(model.bulkCellErrorProb(t, kQuantile));
        }
    });
    ThreadPool::global().resize(1);
    EXPECT_EQ(DriftModel::tablesBuilt(), built + 2);
    for (std::size_t task = 1; task < kTasks; ++task) {
        EXPECT_EQ(population[task], population[0]) << "task " << task;
        EXPECT_EQ(bulk[task], bulk[0]) << "task " << task;
        ASSERT_EQ(values[task].size(), values[0].size());
        for (std::size_t i = 0; i < values[0].size(); ++i) {
            ASSERT_EQ(bits(values[task][i]), bits(values[0][i]))
                << "task " << task << " value " << i;
        }
    }
}

/**
 * A cold build spread over 4 pool threads equals a serial one bit for
 * bit. The margin band enters only the margin-flag table, so two
 * configs apart in it alone get two builds of equal error tables.
 */
TEST(DriftTableStoreParallel, PoolBuildMatchesSerialBuild)
{
    const DeviceConfig serialConfig = freshConfig();
    DeviceConfig pooledConfig = serialConfig;
    pooledConfig.marginBandLogR *= 1.5;
    const DriftModel serial{serialConfig};
    serial.prewarm();
    serial.prewarmBulk(kQuantile);
    const DriftModel pooled{pooledConfig};
    const std::size_t built = DriftModel::tablesBuilt();
    ThreadPool::global().resize(4);
    pooled.prewarm();
    pooled.prewarmBulk(kQuantile);
    ThreadPool::global().resize(1);
    EXPECT_EQ(DriftModel::tablesBuilt(), built + 2);
    for (const double t : gridAges(serialConfig)) {
        ASSERT_EQ(bits(pooled.cellErrorProb(t)),
                  bits(serial.cellErrorProb(t)))
            << "t=" << t;
        ASSERT_EQ(bits(pooled.bulkCellErrorProb(t, kQuantile)),
                  bits(serial.bulkCellErrorProb(t, kQuantile)))
            << "t=" << t;
    }
}

} // namespace
} // namespace pcmscrub
