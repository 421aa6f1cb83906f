/**
 * @file
 * Closed-form resistance-drift mathematics.
 *
 * A level-l cell is programmed to log10 R0 ~ N(m_l, sigma_R) and
 * drifts as log10 R(t) = log10 R0 + nu * log10(t/t0) with
 * nu ~ N(mu_l, sigma_l). At age t the log-resistance is therefore
 * Gaussian with mean m_l + mu_l*u and variance
 * sigma_R^2 + (sigma_l*u)^2, where u = log10(t/t0). The cell misreads
 * once it crosses its upper threshold T_l, so
 *
 *   p_l(t) = Q( (T_l - m_l - mu_l*u) / sqrt(sigma_R^2+(sigma_l*u)^2) )
 *
 * This is exact for the model (not an approximation), which is what
 * lets the simulator evaluate years of drift lazily at scrub instants
 * instead of stepping time.
 */

#ifndef PCMSCRUB_PCM_DRIFT_MODEL_HH
#define PCMSCRUB_PCM_DRIFT_MODEL_HH

#include <array>
#include <cstddef>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "pcm/device_config.hh"

namespace pcmscrub {

/**
 * Analytic drift-error probabilities for one device configuration.
 */
class DriftModel
{
  public:
    explicit DriftModel(const DeviceConfig &config);

    const DeviceConfig &config() const { return config_; }

    /**
     * The log-age u = log10(t/t0) every probability here is a
     * function of (0 before t0: drift has not begun).
     */
    double logAge(double t_seconds) const;

    /**
     * Probability that a level-l cell with intrinsic drift-speed
     * factor `speed`, at log-age u = logAge(t), reads above its
     * upper threshold. Zero for the top level (drift only raises
     * resistance, and there is no level above). Callers that
     * evaluate many cells at one age compute u once.
     */
    double levelErrorProbAtLogAge(unsigned level, double u,
                                  double speed) const;

    /**
     * Population error probability of a level-l cell at age t:
     * levelErrorProbAtLogAge marginalised over the log-normal
     * intrinsic-speed distribution.
     */
    double levelErrorProb(unsigned level, double t_seconds) const;

    /**
     * Error probability of a cell holding uniformly-random data at
     * age t: the mean of levelErrorProb over all levels. Read from
     * a log-time lookup table that prewarm() builds (the scrub
     * engine calls this on every line visit).
     */
    double cellErrorProb(double t_seconds) const;

    /**
     * Error probability of a random-data cell with a known speed
     * factor (levels averaged).
     */
    double cellErrorProbGivenSpeed(double t_seconds,
                                   double speed) const;

    /** Intrinsic speed factor at a population quantile u in (0,1). */
    double speedAtQuantile(double u) const;

    /**
     * Probability that a line of `cells` cells has strictly more
     * than `t_ecc` erroneous cells at age t (each erroneous cell is
     * one bit error under Gray coding). This is the per-check
     * uncorrectable probability the scrub policies reason about.
     */
    double lineUncorrectableProb(unsigned cells, double t_seconds,
                                 unsigned t_ecc) const;

    /** Expected erroneous cells in a line at age t. */
    double expectedLineErrors(unsigned cells, double t_seconds) const;

    /**
     * Largest age at which a `cells`-cell line protected by a
     * t_ecc-correcting code stays uncorrectable with probability
     * below `p_ue`.
     */
    double timeToLineUncorrectable(unsigned cells, unsigned t_ecc,
                                   double p_ue) const;

    /**
     * Conditional scheduling horizon: given a line that is
     * `age_now` seconds old and was just *observed* to hold exactly
     * `current_errors` erroneous cells, how many further seconds may
     * pass before the probability that its errors exceed t_ecc
     * crosses `p_ue`? Uses the conditional crossing growth
     * (p(a2) - p(a1)) / (1 - p(a1)) over the still-healthy cells —
     * exact for the monotone drift model. This is what lets the
     * adaptive scrub space checks from the *check* instant instead
     * of the write instant (drift decelerates in absolute time, so
     * old-but-verified-clean lines earn long horizons). Asserts that
     * prewarmConditional() ran for (cells, t_ecc, current_errors,
     * p_ue) unless current_errors > t_ecc.
     *
     * @return additional seconds from now (0 if already over)
     */
    double timeToConditionalUncorrectable(unsigned cells,
                                          unsigned t_ecc,
                                          unsigned current_errors,
                                          double age_now,
                                          double p_ue) const;

    /**
     * Age at which the *expected* error count of a `cells`-cell line
     * reaches k — the population-mean crossing time used to estimate
     * how long an uncorrectable line had been exposed to demand
     * reads before scrub caught it. Returns the search bound if the
     * expectation never reaches k.
     */
    double timeToExpectedErrors(unsigned cells, double k) const;

    /**
     * Probability that a level-l cell at age t sits inside the
     * margin band (within marginBandLogR below its upper threshold)
     * *or* beyond it: the fraction of cells the light margin read
     * flags. The margin read catches drift before it becomes error.
     */
    double levelMarginFlagProb(unsigned level, double t_seconds) const;

    /**
     * Margin-flag probability for uniformly-random data. Table-backed;
     * see prewarm().
     */
    double cellMarginFlagProb(double t_seconds) const;

    /**
     * Make the cell-error and margin-flag lookup tables readable
     * through this model (idempotent). The tables live in a
     * process-wide, build-once store shared by every model with the
     * same drift inputs (DESIGN.md, "Table store"): the first request
     * for a key builds it, later ones only point at it. Once built a
     * table is read-only and never moves, so parallel shard tasks may
     * read it concurrently. cellErrorProb(), cellMarginFlagProb() and
     * everything built on them (the line probabilities and the
     * timeTo* searches except the conditional one) assert that this
     * model's prewarm() ran, even when another model already had the
     * store build the tables.
     */
    void prewarm() const;

    /**
     * Make the bulk-population table for one quantile readable through
     * this model (idempotent; built once per process like prewarm()'s).
     * The bulk population is a random-data cell *conditioned on its
     * intrinsic speed lying below the q-quantile*: what is left after
     * a backend carves out the fastest cells for individual tracking.
     * bulkTable() asserts that this model prewarmed its quantile.
     */
    void prewarmBulk(double quantile) const;

    /**
     * Entries the process-wide store has built so far: one per
     * distinct (drift inputs, quantile) key, however many models
     * asked.
     */
    static std::size_t tablesBuilt();

    /**
     * Build what timeToConditionalUncorrectable(cells, t_ecc,
     * current_errors, age, p_ue) reads, for every age (idempotent,
     * serial like the other prewarms): the bulk table of the
     * still-healthy population's quantile, and the growth bracket of
     * (healthy cells, error budget, p_ue).
     *
     * Each step of the conditional search compares the binomial tail
     * of the crossing growth g against p_ue. The exact tail is
     * strictly increasing in g, so one threshold g* decides every
     * step. The bracket [below, above] straddles g* with a relative
     * margin of 1e-11 on each side, found by bisecting the computed
     * tail down to adjacent doubles; a growth outside it is decided
     * without evaluating the tail, one inside it evaluates the tail
     * exactly. The margin moves the tail by ~1e-11 relative, far
     * beyond its ~3e-13 rounding error, so no decision can differ
     * from evaluating the tail everywhere; building the bracket
     * asserts that the tail at each edge clears p_ue by 1e-12
     * relative.
     */
    void prewarmConditional(unsigned cells, unsigned t_ecc,
                            unsigned current_errors, double p_ue) const;

    /**
     * The conditional search's decision data for one (healthy cells,
     * error budget, p_ue); see prewarmConditional().
     */
    struct GrowthBracket
    {
        /** Growths at or below this keep the tail under p_ue. */
        double below;
        /** Growths at or above this put the tail at or over p_ue. */
        double above;
        /** logChoose(healthy, budget + 1), the tail's first term. */
        double logChooseNext;
    };

    /**
     * The bracket prewarmConditional() built for these arguments
     * (asserts if it did not run; current_errors <= t_ecc).
     */
    const GrowthBracket &growthBracket(unsigned cells, unsigned t_ecc,
                                       unsigned current_errors,
                                       double p_ue) const;

    /**
     * Where the conditional search's bisection can skip its
     * predicate. The bulk table is piecewise linear in log-age, so
     * the ages at which the crossing growth reaches the bracket's
     * edges are one inverse table read each (a binary search for the
     * segment, then a linear solve in it). Every bisection step at
     * ln t <= midLo has growth under the bracket and every one at
     * ln t >= midHi over it, with margins that no rounding of the
     * forward read can cross (DESIGN.md, "Crossing band"); only the
     * steps in between evaluate the predicate. midLo = -inf and
     * midHi = +inf decide no step; midLo = +inf (the lower edge lies
     * past the table's end) makes every step below, and midHi = -inf
     * (the whole table lies above the upper edge) every step not
     * below. If the forward predicate does not confirm a finite edge,
     * or the table is not monotone, the band is (-inf, +inf) and
     * `verified` is false: the search evaluates every step.
     */
    struct CrossingBand
    {
        double midLo;
        double midHi;
        bool verified;
    };

    /**
     * The band timeToConditionalUncorrectable() uses for these
     * arguments (current_errors <= t_ecc; prewarmConditional() ran).
     */
    CrossingBand crossingBand(unsigned cells, unsigned t_ecc,
                              unsigned current_errors, double age_now,
                              double p_ue) const;

    /**
     * timeToConditionalUncorrectable() searching with `band` instead
     * of crossingBand()'s: (-inf, +inf) is the plain search a refused
     * band falls back to.
     */
    double timeToConditionalUncorrectable(unsigned cells, unsigned t_ecc,
                                          unsigned current_errors,
                                          double age_now, double p_ue,
                                          const CrossingBand &band) const;

    /** Log-time lookup table; empty until prewarmed. */
    using AgeTable = std::vector<double>;

    /**
     * The prewarmed bulk table for one quantile, for callers that
     * read it many times: it lives in the process-wide store, so its
     * address is stable for the process's lifetime and shared by
     * every model with the same drift inputs and quantile.
     */
    const AgeTable &bulkTable(double quantile) const;

    /**
     * Interpolated read of a prewarmed table at log-age u: the bulk
     * cell error probability at age t is
     * interpolateAtLogAge(bulkTable(q), logAge(t)).
     */
    static double interpolateAtLogAge(const AgeTable &table, double u);

  private:
    /**
     * Stratified quadrature of the log-normal intrinsic-speed
     * distribution truncated at a quantile cut: (weight, speed) pairs.
     *
     * The log-normal tail carries disproportionate error probability at
     * short ages (the fastest 0.1% of cells fail orders of magnitude
     * earlier than the median cell), so the strata refine geometrically
     * toward the top: uniform strata over the bulk, then eight strata
     * per decade of remaining tail mass down to 1e-8. The speeds depend
     * only on the quantile, so a table builder computes them once and
     * reuses them at every grid age.
     */
    struct SpeedStrata
    {
        struct Stratum
        {
            double weight;
            double speed;
        };
        std::vector<Stratum> strata;

        /** Weighted sum of f(speed), in stratum order. */
        template <typename F>
        double average(F f) const
        {
            double sum = 0.0;
            for (const Stratum &stratum : strata)
                sum += stratum.weight * f(stratum.speed);
            return sum;
        }
    };

    /**
     * Largest age t in [1 s, 1e11 s] at which below(t) still holds,
     * for a predicate that holds up to some age and fails beyond it:
     * bisection in log-age down to a 1e-12 bracket. Returns 1e11 if
     * below(1e11) holds and 1 s if below(1 s) fails. Every timeTo*
     * search is one call, with below(t) = "f(t) < target" for a
     * non-decreasing f (or an exact shortcut of that comparison).
     * A step whose ln t is at most mid_lo counts as below and one at
     * least mid_hi as not below, without calling below(); the two end
     * checks always call it.
     */
    template <typename Below>
    static double bisectAge(
        Below below,
        double mid_lo = -std::numeric_limits<double>::infinity(),
        double mid_hi = std::numeric_limits<double>::infinity());

    /** A bulk table and whether it is non-decreasing. */
    struct BulkTable
    {
        AgeTable values;
        bool sorted = false;
    };

    /** The prewarmed bulk entry for one quantile. */
    const BulkTable &bulkEntry(double quantile) const;

    /** One conditional search's inputs, resolved once. */
    struct ConditionalSearch
    {
        const BulkTable &bulk;
        const GrowthBracket &bracket;
        unsigned healthy;
        unsigned budget;
        double p1; //!< Bulk error probability at age_now.
        double age_now;
        double p_ue;
    };

    /** Resolve a search (asserts its prewarms ran; errors <= t_ecc). */
    ConditionalSearch conditionalSearch(unsigned cells, unsigned t_ecc,
                                        unsigned current_errors,
                                        double age_now,
                                        double p_ue) const;

    /** How the bracket decides one conditional search step. */
    enum class Gate
    {
        Below, //!< Growth at or under the bracket: below p_ue.
        Above, //!< Growth at or over the bracket: not below.
        Tail,  //!< Inside the bracket: evaluate the tail.
    };

    /**
     * The bracket's decision for the crossing growth over p1 at age
     * t, which it stores in `growth` unless the bulk did not grow.
     */
    Gate gate(const ConditionalSearch &search, double t,
              double &growth) const;

    /** The crossing band of a resolved search. */
    CrossingBand crossingBand(const ConditionalSearch &search) const;

    /** The conditional search bisected with `band`: seconds from now. */
    double conditionalHorizon(const ConditionalSearch &search,
                              const CrossingBand &band) const;

    /** cellErrorProbGivenSpeed at log-age u. */
    double cellErrorProbAtLogAge(double u, double speed) const;

    /**
     * Probability that a level-l cell of intrinsic speed `speed` at
     * log-age u reads above the bottom of the margin band.
     */
    double levelAboveBandProbAtLogAge(unsigned level, double u,
                                      double speed) const;

    /** levelMarginFlagProb at log-age u. */
    double levelMarginFlagProbAtLogAge(unsigned level, double u) const;

    /** Strata of the speed distribution truncated at `quantile`. */
    SpeedStrata speedStrata(double quantile) const;

    /**
     * The tables of one store key: the error table of the population
     * below `quantile`, and for quantile 1 (the whole population) the
     * margin-flag table too. Defined in drift_model.cc.
     */
    struct StoredTables;

    /**
     * The store's tables for this model's drift inputs at `quantile`,
     * built on the first request in the process.
     */
    const StoredTables &storedTables(double quantile) const;

    /** Fill `tables` over the log-time grid, in one pass per age. */
    void buildTables(double quantile, StoredTables &tables) const;

    /** Interpolated read of a prewarmed table. */
    double interpolate(const AgeTable &table, double t_seconds) const;

    DeviceConfig config_;

    /** Strata of the whole population (quantile 1). */
    SpeedStrata strata_;

    /** Set by prewarm(); they point into the table store. */
    mutable const AgeTable *cellErrorTable_ = nullptr;
    mutable const AgeTable *marginFlagTable_ = nullptr;
    /** Set by prewarmBulk(); keyed by the quantile in millionths. */
    mutable std::map<long, const BulkTable *> bulkTables_;

    /** Keyed by (healthy cells, error budget, p_ue). */
    using BracketKey = std::tuple<unsigned, unsigned, double>;
    mutable std::map<BracketKey, GrowthBracket> growthBrackets_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_PCM_DRIFT_MODEL_HH
