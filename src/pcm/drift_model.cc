#include "pcm/drift_model.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>

#include "common/logging.hh"
#include "common/math.hh"
#include "common/thread_pool.hh"

namespace pcmscrub {

namespace {

/** Log-time lookup grid: u = log10(t/t0) in [0, maxLogAge]. */
constexpr double maxLogAge = 11.0;
constexpr double logAgeStep = 0.005;
constexpr unsigned tableSize =
    static_cast<unsigned>(maxLogAge / logAgeStep) + 2;

} // namespace

DriftModel::DriftModel(const DeviceConfig &config)
    : config_(config)
{
    config_.validate();
    strata_ = speedStrata(1.0);
}

double
DriftModel::logAge(double t_seconds) const
{
    // Drift has not begun before t0; clamp rather than extrapolate
    // backwards (the power law is only defined for t >= t0).
    if (t_seconds <= config_.driftT0Seconds)
        return 0.0;
    return std::log10(t_seconds / config_.driftT0Seconds);
}

double
DriftModel::speedAtQuantile(double u) const
{
    PCMSCRUB_ASSERT(u > 0.0 && u < 1.0, "quantile %f out of range", u);
    if (config_.driftSpeedSigmaLn == 0.0)
        return 1.0;
    return std::exp(config_.driftSpeedSigmaLn * qfuncInv(1.0 - u));
}

DriftModel::SpeedStrata
DriftModel::speedStrata(double quantile) const
{
    // Without speed spread every cell drifts at the nominal speed:
    // one stratum of weight 1 (0 + 1*f is exactly f).
    if (config_.driftSpeedSigmaLn == 0.0)
        return SpeedStrata{{{1.0, 1.0}}};
    SpeedStrata strata;
    const auto addRange = [&](double lo, double hi, unsigned n) {
        const double weight = (hi - lo) / quantile /
            static_cast<double>(n);
        for (unsigned i = 0; i < n; ++i) {
            const double u = lo + (hi - lo) *
                (static_cast<double>(i) + 0.5) / n;
            strata.strata.push_back({weight, speedAtQuantile(u)});
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
    return strata;
}

double
DriftModel::levelErrorProbAtLogAge(unsigned level, double u,
                                   double speed) const
{
    PCMSCRUB_ASSERT(level < mlcLevels, "bad level %u", level);
    if (!config_.hasUpperThreshold(level))
        return 0.0;
    const double mu = config_.driftMu[level] * speed;
    const double sigmaNu = config_.driftSigma(level) * speed;
    const double margin = config_.readThresholdLogR[level] -
        config_.levelMeanLogR[level] - mu * u;
    const double sigmaNuU = sigmaNu * u;
    const double sigma = std::sqrt(config_.sigmaLogR * config_.sigmaLogR +
                                   sigmaNuU * sigmaNuU);
    return qfunc(margin / sigma);
}

double
DriftModel::cellErrorProbAtLogAge(double u, double speed) const
{
    double sum = 0.0;
    for (unsigned l = 0; l < mlcLevels; ++l)
        sum += levelErrorProbAtLogAge(l, u, speed);
    return sum / static_cast<double>(mlcLevels);
}

double
DriftModel::cellErrorProbGivenSpeed(double t_seconds, double speed) const
{
    return cellErrorProbAtLogAge(logAge(t_seconds), speed);
}

double
DriftModel::levelErrorProb(unsigned level, double t_seconds) const
{
    PCMSCRUB_ASSERT(level < mlcLevels, "bad level %u", level);
    if (!config_.hasUpperThreshold(level))
        return 0.0;
    const double u = logAge(t_seconds);
    return strata_.average([this, level, u](double speed) {
        return levelErrorProbAtLogAge(level, u, speed);
    });
}

double
DriftModel::interpolate(const AgeTable &table, double t_seconds) const
{
    return interpolateAtLogAge(table, logAge(t_seconds));
}

double
DriftModel::interpolateAtLogAge(const AgeTable &table, double u)
{
    PCMSCRUB_ASSERT(!table.empty(),
                    "drift table read before prewarm()");
    const double position = u / logAgeStep;
    const auto index = static_cast<unsigned>(position);
    if (index + 1 >= tableSize)
        return table.back();
    const double frac = position - static_cast<double>(index);
    return table[index] * (1.0 - frac) + table[index + 1] * frac;
}

double
DriftModel::cellErrorProb(double t_seconds) const
{
    PCMSCRUB_ASSERT(cellErrorTable_ != nullptr,
                    "drift table read before prewarm()");
    return interpolate(*cellErrorTable_, t_seconds);
}

namespace {

long
bulkKey(double quantile)
{
    return std::lround(quantile * 1e6);
}

} // namespace

const DriftModel::BulkTable &
DriftModel::bulkEntry(double quantile) const
{
    const auto it = bulkTables_.find(bulkKey(quantile));
    PCMSCRUB_ASSERT(it != bulkTables_.end(),
                    "bulk quantile %f read before prewarmBulk()",
                    quantile);
    return *it->second;
}

const DriftModel::AgeTable &
DriftModel::bulkTable(double quantile) const
{
    return bulkEntry(quantile).values;
}

double
DriftModel::bulkCellErrorProb(double t_seconds, double quantile) const
{
    return interpolate(bulkTable(quantile), t_seconds);
}

double
DriftModel::lineUncorrectableProb(unsigned cells, double t_seconds,
                                  unsigned t_ecc) const
{
    return binomialTailAbove(cells, cellErrorProb(t_seconds), t_ecc);
}

double
DriftModel::expectedLineErrors(unsigned cells, double t_seconds) const
{
    return static_cast<double>(cells) * cellErrorProb(t_seconds);
}

template <typename Below>
double
DriftModel::bisectAge(Below below, double mid_lo, double mid_hi)
{
    constexpr double tLow = 1.0;
    constexpr double tHigh = 1e11;
    if (below(tHigh))
        return tHigh; // Never reaches the target within range.
    if (!below(tLow))
        return tLow; // Already too risky at the smallest age.
    double lo = std::log(tLow);
    double hi = std::log(tHigh);
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= mid_lo ||
            (mid < mid_hi && below(std::exp(mid))))
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12)
            break;
    }
    return std::exp(lo);
}

double
DriftModel::timeToLineUncorrectable(unsigned cells, unsigned t_ecc,
                                    double p_ue) const
{
    PCMSCRUB_ASSERT(p_ue > 0.0 && p_ue < 1.0, "probability target %f",
                    p_ue);
    return bisectAge([this, cells, t_ecc, p_ue](double t) {
        return lineUncorrectableProb(cells, t, t_ecc) < p_ue;
    });
}

namespace {

/**
 * Quantile of the speed distribution below which a line's healthy
 * cells lie once `current_errors` of its `cells` have failed.
 *
 * The cells that already failed are, with overwhelming probability,
 * the fastest intrinsic drifters; the still-healthy population
 * therefore follows the speed distribution truncated at the matching
 * quantile. Without this conditioning the tail would be
 * double-counted and horizons would collapse whenever a few chronic
 * cells sit inside the ECC budget.
 */
double
conditionalQuantile(unsigned cells, unsigned current_errors)
{
    return 1.0 -
        static_cast<double>(current_errors) / static_cast<double>(cells);
}

/** Relative distance of a bracket edge from the tail's crossing. */
constexpr double bracketMargin = 1e-11;

/** Relative clearance of p_ue the tail must show at each edge. */
constexpr double bracketTailSlack = 1e-12;

/**
 * Relative growth margin (kappa) between a crossing band's edge and
 * the bracket edge it stands for.
 */
constexpr double bandGrowthMargin = 1e-11;

/**
 * Grid steps between a band edge and its inverse read. Rounding in
 * ln t -> log-age -> grid position moves a forward read's position by
 * about 1e-12 steps.
 */
constexpr double bandPositionMargin = 1e-10;

/**
 * Band edge allowance for the forward read's rounding in probability
 * (the interpolation and the subtraction of p1 round by a few ulps),
 * in ulps of the larger target.
 */
constexpr double bandRoundingUlps = 16.0;

/**
 * Grid position at which the interpolant of a non-decreasing table
 * crosses `target`: every position below it reads at most `target`
 * and every one above it more. -inf if every entry lies above
 * `target`, +inf if none does.
 */
double
crossingPosition(const std::vector<double> &table, double target)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const auto above =
        std::upper_bound(table.begin(), table.end(), target);
    if (above == table.begin())
        return -inf;
    if (above == table.end())
        return inf;
    const auto index = above - table.begin() - 1;
    const double base = table[static_cast<std::size_t>(index)];
    return static_cast<double>(index) +
        (target - base) / (*above - base);
}

/** Bisect the tail of (healthy, budget) for its p_ue crossing. */
DriftModel::GrowthBracket
findGrowthBracket(unsigned healthy, unsigned budget, double p_ue)
{
    const double logChooseNext = logChoose(healthy, budget + 1);
    const auto tail = [=](double growth) {
        return binomialTailAbove(healthy, growth, budget, logChooseNext);
    };
    // With no more healthy cells than the budget, no growth crosses.
    constexpr double never = std::numeric_limits<double>::infinity();
    if (tail(1.0) < p_ue)
        return {never, never, logChooseNext};
    // tail(lo) < p_ue <= tail(hi), bisected to adjacent doubles.
    double lo = 0.0;
    double hi = 1.0;
    while (true) {
        const double mid = lo + 0.5 * (hi - lo);
        if (mid <= lo || mid >= hi)
            break;
        if (tail(mid) < p_ue)
            lo = mid;
        else
            hi = mid;
    }
    const DriftModel::GrowthBracket bracket{
        lo * (1.0 - bracketMargin), hi * (1.0 + bracketMargin),
        logChooseNext};
    PCMSCRUB_ASSERT(tail(bracket.below) < p_ue * (1.0 - bracketTailSlack),
                    "growth bracket (%u, %u, %g) too tight below",
                    healthy, budget, p_ue);
    PCMSCRUB_ASSERT(tail(bracket.above) > p_ue * (1.0 + bracketTailSlack),
                    "growth bracket (%u, %u, %g) too tight above",
                    healthy, budget, p_ue);
    return bracket;
}

} // namespace

const DriftModel::GrowthBracket &
DriftModel::growthBracket(unsigned cells, unsigned t_ecc,
                          unsigned current_errors, double p_ue) const
{
    PCMSCRUB_ASSERT(current_errors <= t_ecc,
                    "%u errors exceed the budget %u", current_errors,
                    t_ecc);
    const unsigned healthy = cells > current_errors
        ? cells - current_errors : 0;
    const auto found = growthBrackets_.find(
        BracketKey{healthy, t_ecc - current_errors, p_ue});
    PCMSCRUB_ASSERT(found != growthBrackets_.end(),
                    "conditional horizon (%u errors, p_ue %g) read "
                    "before prewarmConditional()",
                    current_errors, p_ue);
    return found->second;
}

DriftModel::ConditionalSearch
DriftModel::conditionalSearch(unsigned cells, unsigned t_ecc,
                              unsigned current_errors, double age_now,
                              double p_ue) const
{
    const BulkTable &bulk =
        bulkEntry(conditionalQuantile(cells, current_errors));
    return {bulk, growthBracket(cells, t_ecc, current_errors, p_ue),
            cells > current_errors ? cells - current_errors : 0,
            t_ecc - current_errors, interpolate(bulk.values, age_now),
            age_now, p_ue};
}

DriftModel::Gate
DriftModel::gate(const ConditionalSearch &search, double t,
                 double &growth) const
{
    const double p2 = interpolate(search.bulk.values, t);
    if (p2 <= search.p1)
        return Gate::Below;
    growth = (p2 - search.p1) / (1.0 - search.p1);
    if (growth <= search.bracket.below)
        return Gate::Below;
    if (growth >= search.bracket.above)
        return Gate::Above;
    return Gate::Tail;
}

DriftModel::CrossingBand
DriftModel::crossingBand(const ConditionalSearch &search) const
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr CrossingBand unbanded{-inf, inf, false};
    if (!search.bulk.sorted)
        return unbanded;
    const GrowthBracket &bracket = search.bracket;
    // No growth crosses: every step is below without a tail.
    if (!std::isfinite(bracket.above))
        return {inf, inf, true};
    const double p1 = search.p1;
    const double hiTarget =
        p1 + bracket.above * (1.0 - p1) * (1.0 + bandGrowthMargin);
    const double rounding = bandRoundingUlps *
        std::numeric_limits<double>::epsilon() * hiTarget;
    const double loTarget = p1 +
        bracket.below * (1.0 - p1) * (1.0 - bandGrowthMargin) - rounding;
    // Grid position -> ln t; infinities pass through.
    const double scale = logAgeStep * std::log(10.0);
    const double lnT0 = std::log(config_.driftT0Seconds);
    const AgeTable &bulk = search.bulk.values;
    const CrossingBand band{
        lnT0 + (crossingPosition(bulk, loTarget) - bandPositionMargin) *
            scale,
        lnT0 + (crossingPosition(bulk, hiTarget + rounding) +
                bandPositionMargin) * scale,
        true};
    // The forward read must agree at each finite edge.
    double growth = 0.0;
    if (std::isfinite(band.midLo) &&
        gate(search, std::exp(band.midLo), growth) != Gate::Below)
        return unbanded;
    if (std::isfinite(band.midHi) &&
        gate(search, std::exp(band.midHi), growth) != Gate::Above)
        return unbanded;
    return band;
}

double
DriftModel::conditionalHorizon(const ConditionalSearch &search,
                               const CrossingBand &band) const
{
    const double horizon = bisectAge(
        [this, &search](double t) {
            double growth = 0.0;
            const Gate decision = gate(search, t, growth);
            if (decision != Gate::Tail)
                return decision == Gate::Below;
            return binomialTailAbove(search.healthy, growth,
                                     search.budget,
                                     search.bracket.logChooseNext) <
                search.p_ue;
        },
        band.midLo, band.midHi);
    return horizon > search.age_now ? horizon - search.age_now : 0.0;
}

DriftModel::CrossingBand
DriftModel::crossingBand(unsigned cells, unsigned t_ecc,
                         unsigned current_errors, double age_now,
                         double p_ue) const
{
    return crossingBand(
        conditionalSearch(cells, t_ecc, current_errors, age_now, p_ue));
}

double
DriftModel::timeToConditionalUncorrectable(unsigned cells,
                                           unsigned t_ecc,
                                           unsigned current_errors,
                                           double age_now,
                                           double p_ue) const
{
    PCMSCRUB_ASSERT(p_ue > 0.0 && p_ue < 1.0, "probability target %f",
                    p_ue);
    if (current_errors > t_ecc)
        return 0.0;
    const ConditionalSearch search =
        conditionalSearch(cells, t_ecc, current_errors, age_now, p_ue);
    return conditionalHorizon(search, crossingBand(search));
}

double
DriftModel::timeToConditionalUncorrectable(unsigned cells,
                                           unsigned t_ecc,
                                           unsigned current_errors,
                                           double age_now, double p_ue,
                                           const CrossingBand &band) const
{
    PCMSCRUB_ASSERT(p_ue > 0.0 && p_ue < 1.0, "probability target %f",
                    p_ue);
    if (current_errors > t_ecc)
        return 0.0;
    return conditionalHorizon(
        conditionalSearch(cells, t_ecc, current_errors, age_now, p_ue),
        band);
}

double
DriftModel::timeToExpectedErrors(unsigned cells, double k) const
{
    PCMSCRUB_ASSERT(k > 0.0, "error target must be positive");
    return bisectAge([this, cells, k](double t) {
        return expectedLineErrors(cells, t) < k;
    });
}

double
DriftModel::levelAboveBandProbAtLogAge(unsigned level, double u,
                                       double speed) const
{
    const double mu = config_.driftMu[level] * speed;
    const double sigmaNuU = config_.driftSigma(level) * speed * u;
    const double mean = config_.levelMeanLogR[level] + mu * u;
    const double sigma = std::sqrt(config_.sigmaLogR * config_.sigmaLogR +
                                   sigmaNuU * sigmaNuU);
    const double bandLow = config_.readThresholdLogR[level] -
        config_.marginBandLogR;
    return qfunc((bandLow - mean) / sigma);
}

double
DriftModel::levelMarginFlagProbAtLogAge(unsigned level, double u) const
{
    PCMSCRUB_ASSERT(level < mlcLevels, "bad level %u", level);
    if (!config_.hasUpperThreshold(level))
        return 0.0;
    // Flagged = still reads correctly but sits inside the guard band
    // below the threshold: P(bandLow < logR <= T_l).
    return strata_.average([this, level, u](double speed) {
        return levelAboveBandProbAtLogAge(level, u, speed) -
            levelErrorProbAtLogAge(level, u, speed);
    });
}

double
DriftModel::levelMarginFlagProb(unsigned level, double t_seconds) const
{
    return levelMarginFlagProbAtLogAge(level, logAge(t_seconds));
}

struct DriftModel::StoredTables
{
    /** Error probability of the population below the quantile. */
    BulkTable cellError;
    /** Margin-flag probability; quantile 1 only. */
    AgeTable marginFlag;
    std::once_flag built;
};

namespace {

/**
 * A table store key: the bits of every DeviceConfig field a table
 * reads, then the quantile's. Exact bits, not a hash: two keys share
 * tables only if every input is the same double.
 */
using TableKey = std::array<std::uint64_t, 5 + 2 * mlcLevels +
                                               (mlcLevels - 1) + 1>;

TableKey
tableKey(const DeviceConfig &config, double quantile)
{
    TableKey key{};
    std::size_t next = 0;
    const auto add = [&](double value) {
        key[next++] = std::bit_cast<std::uint64_t>(value);
    };
    add(config.driftT0Seconds);
    add(config.driftSpeedSigmaLn);
    add(config.driftSigmaRatio);
    add(config.sigmaLogR);
    add(config.marginBandLogR);
    for (const double mu : config.driftMu)
        add(mu);
    for (const double mean : config.levelMeanLogR)
        add(mean);
    for (const double threshold : config.readThresholdLogR)
        add(threshold);
    add(quantile);
    PCMSCRUB_ASSERT(next == key.size(), "table key has %zu of %zu fields",
                    next, key.size());
    return key;
}

std::atomic<std::size_t> tablesBuiltCount{0};

} // namespace

std::size_t
DriftModel::tablesBuilt()
{
    return tablesBuiltCount.load(std::memory_order_relaxed);
}

const DriftModel::StoredTables &
DriftModel::storedTables(double quantile) const
{
    // Leaked, so no exit-time destructor frees a table that a model
    // or AnalyticBackend::bulkTable_ still points at; entries are
    // never erased, and std::map never moves them.
    struct Store
    {
        std::mutex mutex;
        std::map<TableKey, StoredTables> entries;
    };
    static Store *const store = new Store;
    StoredTables *tables = nullptr;
    {
        std::lock_guard<std::mutex> lock(store->mutex);
        tables = &store->entries.try_emplace(tableKey(config_, quantile))
                      .first->second;
    }
    // Built outside the map lock: other keys stay available, and
    // requests for this key wait here until the one build is done.
    std::call_once(tables->built, [&] {
        buildTables(quantile, *tables);
        tablesBuiltCount.fetch_add(1, std::memory_order_relaxed);
    });
    return *tables;
}

void
DriftModel::buildTables(double quantile, StoredTables &tables) const
{
    const SpeedStrata strata = speedStrata(quantile);
    const bool withMarginFlag = quantile == 1.0;
    AgeTable &cellError = tables.cellError.values;
    cellError.resize(tableSize);
    if (withMarginFlag)
        tables.marginFlag.resize(tableSize);
    // Each grid age is computed alone, by the same code, so the
    // tables are the same at any thread count. A build requested from
    // inside a pool task runs inline.
    ThreadPool::global().run(tableSize, [&](std::size_t i) {
        const double t = config_.driftT0Seconds *
            std::pow(10.0, static_cast<double>(i) * logAgeStep);
        const double u = logAge(t);
        // One error probability per (level, stratum) feeds both sums,
        // each accumulated in the order of its per-table definition:
        // the cell error averages levels within a stratum, the margin
        // flag averages strata within a level.
        std::vector<double> levelSum(strata.strata.size(), 0.0);
        double marginSum = 0.0;
        for (unsigned l = 0; l < mlcLevels; ++l) {
            double levelMargin = 0.0;
            for (std::size_t s = 0; s < strata.strata.size(); ++s) {
                const double speed = strata.strata[s].speed;
                const double error = levelErrorProbAtLogAge(l, u, speed);
                levelSum[s] += error;
                if (withMarginFlag && config_.hasUpperThreshold(l)) {
                    levelMargin += strata.strata[s].weight *
                        (levelAboveBandProbAtLogAge(l, u, speed) - error);
                }
            }
            marginSum += levelMargin;
        }
        double cellSum = 0.0;
        for (std::size_t s = 0; s < strata.strata.size(); ++s) {
            cellSum += strata.strata[s].weight *
                (levelSum[s] / static_cast<double>(mlcLevels));
        }
        cellError[i] = cellSum;
        if (withMarginFlag)
            tables.marginFlag[i] = marginSum / static_cast<double>(mlcLevels);
    });
    tables.cellError.sorted =
        std::is_sorted(cellError.begin(), cellError.end());
}

void
DriftModel::prewarm() const
{
    if (cellErrorTable_ != nullptr)
        return;
    const StoredTables &tables = storedTables(1.0);
    cellErrorTable_ = &tables.cellError.values;
    marginFlagTable_ = &tables.marginFlag;
}

void
DriftModel::prewarmBulk(double quantile) const
{
    PCMSCRUB_ASSERT(quantile > 0.0 && quantile <= 1.0,
                    "bulk quantile %f out of range", quantile);
    const BulkTable *&entry = bulkTables_[bulkKey(quantile)];
    if (entry == nullptr)
        entry = &storedTables(quantile).cellError;
}

void
DriftModel::prewarmConditional(unsigned cells, unsigned t_ecc,
                               unsigned current_errors,
                               double p_ue) const
{
    PCMSCRUB_ASSERT(p_ue > 0.0 && p_ue < 1.0, "probability target %f",
                    p_ue);
    // Past the budget the search answers 0 without reading anything.
    if (current_errors > t_ecc)
        return;
    prewarmBulk(conditionalQuantile(cells, current_errors));
    const unsigned healthy = cells > current_errors
        ? cells - current_errors : 0;
    const unsigned budget = t_ecc - current_errors;
    const BracketKey key{healthy, budget, p_ue};
    if (growthBrackets_.count(key) == 0)
        growthBrackets_.emplace(key,
                                findGrowthBracket(healthy, budget, p_ue));
}

double
DriftModel::cellMarginFlagProb(double t_seconds) const
{
    PCMSCRUB_ASSERT(marginFlagTable_ != nullptr,
                    "drift table read before prewarm()");
    return interpolate(*marginFlagTable_, t_seconds);
}

} // namespace pcmscrub
