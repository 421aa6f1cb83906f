/**
 * @file
 * Tests for the closed-form drift model, including a Monte-Carlo
 * cross-check against direct sampling of the same physics.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.hh"
#include "common/random.hh"
#include "pcm/drift_model.hh"

namespace pcmscrub {
namespace {

/** A model whose cell-error and margin-flag tables are built. */
DriftModel
prewarmed(const DeviceConfig &config)
{
    DriftModel model{config};
    model.prewarm();
    return model;
}

TEST(DriftModel, TopLevelNeverDriftFails)
{
    const DriftModel model{DeviceConfig{}};
    for (const double t : {1.0, 1e3, 1e6, 1e9}) {
        EXPECT_EQ(model.levelErrorProb(mlcLevels - 1, t), 0.0)
            << "t=" << t;
    }
}

TEST(DriftModel, ErrorProbMonotonicInTime)
{
    const DriftModel model{DeviceConfig{}};
    for (unsigned level = 0; level + 1 < mlcLevels; ++level) {
        double prev = model.levelErrorProb(level, 1.0);
        for (double t = 10.0; t <= 1e8; t *= 10.0) {
            const double p = model.levelErrorProb(level, t);
            EXPECT_GE(p, prev) << "level " << level << " t=" << t;
            prev = p;
        }
    }
}

TEST(DriftModel, HigherDriftLevelsFailFirst)
{
    // Among levels with an upper threshold, larger drift exponents
    // (higher levels in the default config) fail more.
    const DriftModel model{DeviceConfig{}};
    const double t = 3600.0;
    EXPECT_GT(model.levelErrorProb(2, t), model.levelErrorProb(1, t));
    EXPECT_GT(model.levelErrorProb(1, t), model.levelErrorProb(0, t));
}

TEST(DriftModel, NoDriftErrorsBeforeT0)
{
    const DriftModel model{DeviceConfig{}};
    // At t <= t0 only programming noise matters; with the default
    // 0.5 log-decade margin at sigma 0.07 that is Q(7.1) ~ 6e-13.
    for (unsigned level = 0; level + 1 < mlcLevels; ++level) {
        EXPECT_LT(model.levelErrorProb(level, 0.5), 1e-11)
            << "level " << level;
    }
}

TEST(DriftModel, CellErrorProbIsLevelAverage)
{
    // cellErrorProb goes through the interpolated lookup table, so
    // agreement with the direct per-level average is to LUT accuracy.
    const DriftModel model = prewarmed(DeviceConfig{});
    const double t = 86400.0;
    double sum = 0.0;
    for (unsigned l = 0; l < mlcLevels; ++l)
        sum += model.levelErrorProb(l, t);
    const double direct = sum / mlcLevels;
    EXPECT_NEAR(model.cellErrorProb(t), direct, direct * 1e-3);
}

TEST(DriftModel, DefaultConfigProducesPaperScaleRates)
{
    // Sanity-pin the regime the reconstruction targets: at a one-day
    // age the worst intermediate level must be failing at rates that
    // overwhelm SECDED but stay within strong-ECC reach.
    const DriftModel model = prewarmed(DeviceConfig{});
    const double day = 86400.0;
    const double pWorst = model.levelErrorProb(2, day);
    EXPECT_GT(pWorst, 1e-4);
    EXPECT_LT(pWorst, 1e-1);
    // And within an hour the device is still fairly quiet.
    EXPECT_LT(model.cellErrorProb(60.0), 1e-6);
}

TEST(DriftModel, LineUncorrectableDropsSteeplyWithEccStrength)
{
    const DriftModel model = prewarmed(DeviceConfig{});
    const double t = 3600.0;
    const unsigned cells = 256;
    double prev = model.lineUncorrectableProb(cells, t, 0);
    for (unsigned t_ecc = 1; t_ecc <= 8; ++t_ecc) {
        const double p = model.lineUncorrectableProb(cells, t, t_ecc);
        EXPECT_LT(p, prev) << "t_ecc=" << t_ecc;
        // Each extra correctable error buys orders of magnitude.
        if (prev > 1e-300) {
            EXPECT_LT(p / prev, 0.5) << "t_ecc=" << t_ecc;
        }
        prev = p;
    }
}

TEST(DriftModel, ExpectedLineErrorsScalesWithCells)
{
    const DriftModel model = prewarmed(DeviceConfig{});
    const double t = 1e5;
    EXPECT_NEAR(model.expectedLineErrors(512, t),
                2.0 * model.expectedLineErrors(256, t), 1e-12);
}

TEST(DriftModel, TimeToLineUncorrectableGrowsWithEcc)
{
    const DriftModel model = prewarmed(DeviceConfig{});
    double prev = model.timeToLineUncorrectable(256, 1, 1e-12);
    for (unsigned t_ecc = 2; t_ecc <= 8; ++t_ecc) {
        const double t = model.timeToLineUncorrectable(256, t_ecc, 1e-12);
        EXPECT_GT(t, prev) << "t_ecc=" << t_ecc;
        prev = t;
    }
}

TEST(DriftModel, StrongEccExtendsScrubIntervalByOrdersOfMagnitude)
{
    // The paper's core claim for strong ECC: the safe scrub interval
    // at equal reliability is vastly longer for BCH-8 than SECDED.
    const DriftModel model = prewarmed(DeviceConfig{});
    const double tSecded = model.timeToLineUncorrectable(256, 1, 1e-9);
    const double tBch8 = model.timeToLineUncorrectable(256, 8, 1e-9);
    EXPECT_GT(tBch8 / tSecded, 10.0);
}

TEST(DriftModel, MarginFlagProbBounds)
{
    const DriftModel model{DeviceConfig{}};
    for (double t = 1.0; t <= 1e8; t *= 100.0) {
        for (unsigned l = 0; l < mlcLevels; ++l) {
            const double p = model.levelMarginFlagProb(l, t);
            EXPECT_GE(p, 0.0) << "l=" << l << " t=" << t;
            EXPECT_LE(p, 1.0);
        }
    }
    EXPECT_EQ(model.levelMarginFlagProb(mlcLevels - 1, 1e6), 0.0);
}

TEST(DriftModel, MarginFlagsPrecedeErrors)
{
    // The guard band must fire well before the error: at moderate
    // ages the flag probability exceeds the error probability.
    const DriftModel model{DeviceConfig{}};
    for (const double t : {600.0, 3600.0, 86400.0}) {
        EXPECT_GT(model.levelMarginFlagProb(2, t),
                  model.levelErrorProb(2, t))
            << "t=" << t;
    }
}

TEST(DriftModel, ClosedFormMatchesMonteCarloSampling)
{
    // Cross-check the analytic p_l(t) against direct sampling of the
    // same physics (normal R0, normal nu, threshold compare).
    const DeviceConfig config;
    const DriftModel model{config};
    Random rng(1234);
    const unsigned level = 2;
    const double t = 43200.0; // Half a day.
    const double u = std::log10(t / config.driftT0Seconds);
    const int draws = 400000;
    int failures = 0;
    for (int i = 0; i < draws; ++i) {
        const double logR0 = rng.normal(config.levelMeanLogR[level],
                                        config.sigmaLogR);
        const double speed =
            rng.logNormal(0.0, config.driftSpeedSigmaLn);
        const double nu = speed * std::max(
            0.0, rng.normal(config.driftMu[level],
                            config.driftSigma(level)));
        failures += logR0 + nu * u > config.readThresholdLogR[level];
    }
    const double empirical = failures / static_cast<double>(draws);
    const double analytic = model.levelErrorProb(level, t);
    EXPECT_NEAR(empirical, analytic, analytic * 0.15 + 2e-5);
}

// Bit-identity oracle: the tables evaluated the direct way, with
// speedAtQuantile called inside the stratum loop at every grid age
// and every probability evaluated from (t, speed). The model's
// hoisted strata and log-ages must reproduce it bit for bit.

constexpr double kLogAgeStep = 0.005;
constexpr unsigned kTableSize = 2202; // 11 log-decades + 2 points

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

template <typename F>
double
referenceAverage(const DriftModel &model, double quantile, F f)
{
    if (model.config().driftSpeedSigmaLn == 0.0)
        return f(1.0);
    double sum = 0.0;
    const auto addRange = [&](double lo, double hi, unsigned n) {
        const double weight = (hi - lo) / quantile /
            static_cast<double>(n);
        for (unsigned i = 0; i < n; ++i) {
            const double u = lo + (hi - lo) *
                (static_cast<double>(i) + 0.5) / n;
            sum += weight * f(model.speedAtQuantile(u));
        }
    };
    addRange(0.0, 0.9 * quantile, 32);
    double lo = 0.9;
    for (double frac = 0.01; frac >= 1e-8; frac /= 10.0) {
        const double hi = 1.0 - frac;
        addRange(lo * quantile, hi * quantile, 8);
        lo = hi;
    }
    addRange(lo * quantile, (1.0 - 1e-9) * quantile, 4);
    return sum;
}

double
referenceCellErrorProb(const DriftModel &model, double t, double quantile)
{
    return referenceAverage(model, quantile, [&](double speed) {
        return model.cellErrorProbGivenSpeed(t, speed);
    });
}

double
referenceLevelErrorProb(const DriftModel &model, unsigned level, double t)
{
    if (!model.config().hasUpperThreshold(level))
        return 0.0;
    return referenceAverage(model, 1.0, [&](double speed) {
        return model.levelErrorProbAtLogAge(level, model.logAge(t), speed);
    });
}

double
referenceLevelMarginFlagProb(const DriftModel &model, unsigned level,
                             double t)
{
    const DeviceConfig &c = model.config();
    if (!c.hasUpperThreshold(level))
        return 0.0;
    const double u = t <= c.driftT0Seconds
        ? 0.0 : std::log10(t / c.driftT0Seconds);
    return referenceAverage(model, 1.0, [&](double speed) {
        const double mu = c.driftMu[level] * speed;
        const double sigmaNuU = c.driftSigma(level) * speed * u;
        const double mean = c.levelMeanLogR[level] + mu * u;
        const double sigma = std::sqrt(c.sigmaLogR * c.sigmaLogR +
                                       sigmaNuU * sigmaNuU);
        const double bandLow = c.readThresholdLogR[level] -
            c.marginBandLogR;
        return qfunc((bandLow - mean) / sigma) -
            model.levelErrorProbAtLogAge(level, u, speed);
    });
}

double
referenceCellMarginFlagProb(const DriftModel &model, double t)
{
    double sum = 0.0;
    for (unsigned l = 0; l < mlcLevels; ++l)
        sum += referenceLevelMarginFlagProb(model, l, t);
    return sum / static_cast<double>(mlcLevels);
}

/** Reference table: eval at every grid age, read by interpolation. */
class ReferenceTable
{
  public:
    template <typename Eval>
    ReferenceTable(const DeviceConfig &config, Eval eval)
        : t0_(config.driftT0Seconds)
    {
        for (unsigned i = 0; i < kTableSize; ++i)
            values_.push_back(eval(gridAge(i)));
    }

    double gridAge(unsigned i) const
    {
        return t0_ * std::pow(10.0, static_cast<double>(i) * kLogAgeStep);
    }

    double operator()(double t) const
    {
        const double u = t <= t0_ ? 0.0 : std::log10(t / t0_);
        const double position = u / kLogAgeStep;
        const auto index = static_cast<unsigned>(position);
        if (index + 1 >= kTableSize)
            return values_.back();
        const double frac = position - static_cast<double>(index);
        return values_[index] * (1.0 - frac) +
            values_[index + 1] * frac;
    }

  private:
    double t0_;
    std::vector<double> values_;
};

/** Every grid age plus off-grid ages below, between and beyond. */
std::vector<double>
oracleAges(const ReferenceTable &table)
{
    std::vector<double> ages;
    for (unsigned i = 0; i < kTableSize; ++i)
        ages.push_back(table.gridAge(i));
    for (double t = 0.01; t < 1e13; t *= 1.37)
        ages.push_back(t);
    return ages;
}

/** Every quantile the engine prewarms a bulk table for. */
std::vector<double>
engineQuantiles()
{
    std::vector<double> quantiles;
    // AdaptiveScrub over a 296-cell BCH-8 line: errors 0..5.
    for (unsigned e = 0; e <= 5; ++e)
        quantiles.push_back(1.0 - static_cast<double>(e) / 296.0);
    // AdaptiveScrub over a 288-cell SECDED line: errors 0..1.
    quantiles.push_back(1.0 - 1.0 / 288.0);
    // AnalyticBackend's bulk: 8 tracked weak cells of 288 (SECDED)
    // and of 296 (BCH-8) cells.
    quantiles.push_back(1.0 - 8.0 / 288.0);
    quantiles.push_back(1.0 - 8.0 / 296.0);
    return quantiles;
}

void
expectTablesMatchReference(const DeviceConfig &config)
{
    const DriftModel model = prewarmed(config);
    const ReferenceTable cellError(config, [&](double t) {
        return referenceCellErrorProb(model, t, 1.0);
    });
    const ReferenceTable marginFlag(config, [&](double t) {
        return referenceCellMarginFlagProb(model, t);
    });
    const std::vector<double> ages = oracleAges(cellError);
    for (const double t : ages) {
        EXPECT_EQ(bits(model.cellErrorProb(t)), bits(cellError(t)))
            << "t=" << t;
        EXPECT_EQ(bits(model.cellMarginFlagProb(t)), bits(marginFlag(t)))
            << "t=" << t;
    }
    for (const double t : {0.5, 1.0, 60.0, 3600.0, 86400.0, 3.156e7}) {
        for (unsigned l = 0; l < mlcLevels; ++l) {
            EXPECT_EQ(bits(model.levelErrorProb(l, t)),
                      bits(referenceLevelErrorProb(model, l, t)))
                << "l=" << l << " t=" << t;
            EXPECT_EQ(bits(model.levelMarginFlagProb(l, t)),
                      bits(referenceLevelMarginFlagProb(model, l, t)))
                << "l=" << l << " t=" << t;
        }
    }
    for (const double quantile : engineQuantiles()) {
        model.prewarmBulk(quantile);
        const ReferenceTable bulk(config, [&](double t) {
            return referenceCellErrorProb(model, t, quantile);
        });
        for (const double t : ages) {
            EXPECT_EQ(bits(model.bulkCellErrorProb(t, quantile)),
                      bits(bulk(t)))
                << "q=" << quantile << " t=" << t;
        }
    }
}

TEST(DriftModelOracle, TablesBitIdenticalToPerStratumReference)
{
    expectTablesMatchReference(DeviceConfig{});
}

TEST(DriftModelOracle, TablesBitIdenticalWithoutSpeedSpread)
{
    DeviceConfig config;
    config.driftSpeedSigmaLn = 0.0;
    expectTablesMatchReference(config);
}

/** The conditional horizon's bisection, copied from the model. */
template <typename Func>
double
referenceBisectAge(Func f, double target)
{
    constexpr double tLow = 1.0;
    constexpr double tHigh = 1e11;
    if (f(tHigh) < target)
        return tHigh;
    if (f(tLow) >= target)
        return tLow;
    double lo = std::log(tLow);
    double hi = std::log(tHigh);
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (f(std::exp(mid)) < target)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12)
            break;
    }
    return std::exp(lo);
}

/** Line shapes the engine searches horizons for: (cells, ECC t). */
struct LineShape
{
    unsigned cells;
    unsigned eccT;
};
constexpr LineShape kBch8Line{296, 8};
constexpr LineShape kSecdedLine{288, 1};
constexpr double kOracleTargets[] = {1e-12, 1e-9, 1e-7, 1e-5, 1e-3};

/** The plain conditional search: the binomial tail at every step. */
double
referenceConditionalHorizon(const DriftModel &model, LineShape line,
                            unsigned errors, double age, double p_ue)
{
    const double quantile =
        1.0 - static_cast<double>(errors) / line.cells;
    const unsigned healthy = line.cells - errors;
    const unsigned budget = line.eccT - errors;
    const double logChooseNext = logChoose(healthy, budget + 1);
    const double p1 = model.bulkCellErrorProb(age, quantile);
    const double horizon = referenceBisectAge(
        [&](double t) {
            const double p2 = model.bulkCellErrorProb(t, quantile);
            if (p2 <= p1)
                return 0.0;
            const double growth = (p2 - p1) / (1.0 - p1);
            return binomialTailAbove(healthy, growth, budget,
                                     logChooseNext);
        },
        p_ue);
    return horizon > age ? horizon - age : 0.0;
}

/**
 * Ages the conditional oracle searches from: 10k log-uniform ages in
 * [1 s, 1e11 s], a x1.5 grid from 1 s to a year, every table grid
 * node and the doubles one ulp either side of it, and ages past the
 * table's end.
 */
std::vector<double>
conditionalOracleAges(const DeviceConfig &config)
{
    std::vector<double> ages;
    Random rng(20121);
    for (int i = 0; i < 10000; ++i)
        ages.push_back(std::pow(10.0, 11.0 * rng.uniform()));
    for (double age = 1.0; age <= 3.156e7; age *= 1.5)
        ages.push_back(age);
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (unsigned i = 0; i < kTableSize; ++i) {
        const double node = config.driftT0Seconds *
            std::pow(10.0, static_cast<double>(i) * kLogAgeStep);
        ages.push_back(node);
        ages.push_back(std::nextafter(node, 0.0));
        ages.push_back(std::nextafter(node, inf));
    }
    for (const double past : {1.0001, 3.0, 1e3})
        ages.push_back(config.driftT0Seconds * 1e11 * past);
    return ages;
}

/**
 * The banded, gated conditional search against an ungated bisection
 * that evaluates the binomial tail at every step, for every error
 * count up to the budget and every target. Every search of these
 * shapes gets a verified band (none falls back), so the band is what
 * is tested.
 */
TEST(DriftModelOracle, ConditionalHorizonBitIdenticalToPlainBisection)
{
    const DeviceConfig config;
    const DriftModel model{config};
    const std::vector<double> ages = conditionalOracleAges(config);
    for (const LineShape line : {kBch8Line, kSecdedLine}) {
        for (unsigned errors = 0; errors <= line.eccT; ++errors) {
            for (const double pUe : kOracleTargets) {
                model.prewarmConditional(line.cells, line.eccT, errors,
                                         pUe);
                unsigned mismatches = 0;
                unsigned unverified = 0;
                for (const double age : ages) {
                    const double want = referenceConditionalHorizon(
                        model, line, errors, age, pUe);
                    const double got =
                        model.timeToConditionalUncorrectable(
                            line.cells, line.eccT, errors, age, pUe);
                    if (bits(got) != bits(want) && ++mismatches <= 3) {
                        ADD_FAILURE() << "cells=" << line.cells
                                      << " errors=" << errors
                                      << " age=" << age << " p_ue=" << pUe
                                      << ": " << got << " != " << want;
                    }
                    unverified += !model.crossingBand(line.cells,
                                                      line.eccT, errors,
                                                      age, pUe)
                                       .verified;
                }
                EXPECT_EQ(mismatches, 0u)
                    << "cells=" << line.cells << " errors=" << errors
                    << " p_ue=" << pUe;
                EXPECT_EQ(unverified, 0u)
                    << "cells=" << line.cells << " errors=" << errors
                    << " p_ue=" << pUe;
            }
        }
    }
}

/**
 * The search with the band a refused edge check falls back to,
 * (-inf, +inf), evaluates every step: it still matches the plain
 * bisection and the banded search bit for bit.
 */
TEST(DriftModelOracle, ConditionalHorizonFallbackMatchesPlainBisection)
{
    const DeviceConfig config;
    const DriftModel model{config};
    constexpr double inf = std::numeric_limits<double>::infinity();
    const DriftModel::CrossingBand fallback{-inf, inf, false};
    std::vector<double> ages = conditionalOracleAges(config);
    ages.resize(2000);
    for (const LineShape line : {kBch8Line, kSecdedLine}) {
        for (const unsigned errors : {0u, line.eccT}) {
            const double pUe = 1e-7;
            model.prewarmConditional(line.cells, line.eccT, errors, pUe);
            for (const double age : ages) {
                const double banded = model.timeToConditionalUncorrectable(
                    line.cells, line.eccT, errors, age, pUe);
                const double plain = model.timeToConditionalUncorrectable(
                    line.cells, line.eccT, errors, age, pUe, fallback);
                ASSERT_EQ(bits(plain), bits(referenceConditionalHorizon(
                                           model, line, errors, age, pUe)))
                    << "cells=" << line.cells << " errors=" << errors
                    << " age=" << age;
                ASSERT_EQ(bits(plain), bits(banded))
                    << "cells=" << line.cells << " errors=" << errors
                    << " age=" << age;
            }
        }
    }
}

/**
 * The bracket prewarmConditional() stores straddles the tail's
 * crossing of p_ue, tightly: the model's own tail is below the target
 * at the lower edge and at or above it at the upper one.
 */
TEST(DriftModelOracle, GrowthBracketStraddlesTheTailCrossing)
{
    const DriftModel model{DeviceConfig{}};
    for (const LineShape line : {kBch8Line, kSecdedLine}) {
        for (unsigned errors = 0; errors <= line.eccT; ++errors) {
            const unsigned healthy = line.cells - errors;
            const unsigned budget = line.eccT - errors;
            for (const double pUe : kOracleTargets) {
                model.prewarmConditional(line.cells, line.eccT, errors,
                                         pUe);
                const DriftModel::GrowthBracket &bracket =
                    model.growthBracket(line.cells, line.eccT, errors,
                                        pUe);
                SCOPED_TRACE(::testing::Message()
                             << "cells=" << line.cells
                             << " errors=" << errors << " p_ue=" << pUe);
                EXPECT_LT(binomialTailAbove(healthy, bracket.below,
                                            budget),
                          pUe);
                EXPECT_GE(binomialTailAbove(healthy, bracket.above,
                                            budget),
                          pUe);
                EXPECT_GT(bracket.below, 0.0);
                EXPECT_LT((bracket.above - bracket.below) / bracket.below,
                          3e-11);
            }
        }
    }
}

TEST(DriftModelDeath, TableReadBeforePrewarmAsserts)
{
    const DriftModel model{DeviceConfig{}};
    EXPECT_DEATH(model.cellErrorProb(3600.0), "prewarm");
    EXPECT_DEATH(model.cellMarginFlagProb(3600.0), "prewarm");
    model.prewarmBulk(0.99);
    model.prewarmConditional(296, 8, 1, 1e-7);
    EXPECT_DEATH(model.bulkCellErrorProb(3600.0, 0.98), "prewarmBulk");
    EXPECT_DEATH(model.timeToConditionalUncorrectable(296, 8, 2, 3600.0,
                                                      1e-7),
                 "prewarmBulk");
}

TEST(DriftModelDeath, ConditionalHorizonBeforePrewarmConditionalAsserts)
{
    const DriftModel model{DeviceConfig{}};
    model.prewarmConditional(296, 8, 2, 1e-7);
    // Same line and errors, another target: the bulk table is there,
    // the growth bracket is not.
    EXPECT_DEATH(model.timeToConditionalUncorrectable(296, 8, 2, 3600.0,
                                                      1e-9),
                 "prewarmConditional");
    // A bulk table alone does not make a conditional horizon readable.
    model.prewarmBulk(1.0 - 3.0 / 296.0);
    EXPECT_DEATH(model.timeToConditionalUncorrectable(296, 8, 3, 3600.0,
                                                      1e-7),
                 "prewarmConditional");
}

TEST(DriftModelDeath, InvalidConfigIsFatal)
{
    DeviceConfig config;
    config.sigmaLogR = -1.0;
    EXPECT_EXIT(DriftModel{config}, ::testing::ExitedWithCode(1),
                "sigmaLogR");
    DeviceConfig bad2;
    bad2.readThresholdLogR[0] = 10.0;
    EXPECT_EXIT(DriftModel{bad2}, ::testing::ExitedWithCode(1),
                "threshold");
}

} // namespace
} // namespace pcmscrub
