/**
 * @file
 * Small numeric helpers used by the drift model and statistics.
 */

#ifndef PCMSCRUB_COMMON_MATH_HH
#define PCMSCRUB_COMMON_MATH_HH

#include <cmath>

namespace pcmscrub {

/**
 * Gaussian upper-tail probability Q(z) = P(N(0,1) > z).
 *
 * Uses erfc for full double-precision accuracy far into the tail,
 * which matters: drift error probabilities of 1e-15 per cell are
 * meaningful once multiplied by billions of cell-checks.
 */
inline double
qfunc(double z)
{
    return 0.5 * std::erfc(z / std::sqrt(2.0));
}

/** Standard normal CDF. */
inline double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

/**
 * Inverse of qfunc: the z with Q(z) = p, for p in (0, 1).
 *
 * Acklam's rational approximation refined by one Halley step against
 * the exact erfc-based CDF; accurate to ~1e-15 over the full range.
 */
double qfuncInv(double p);

/**
 * log(1 - exp(x)) for x < 0 without catastrophic cancellation.
 */
inline double
log1mexp(double x)
{
    // Split point from Maechler's note on accurate log(1-exp(x)).
    if (x > -0.6931471805599453) // -ln 2
        return std::log(-std::expm1(x));
    return std::log1p(-std::exp(x));
}

/** log C(n, k) via lgamma; -infinity when k > n. */
double logChoose(unsigned n, unsigned k);

/**
 * Probability that a Binomial(n, p) exceeds k, computed stably for
 * tiny p and moderate n (the per-line uncorrectable-error question:
 * "more than t of my 256 cells failed").
 */
double binomialTailAbove(unsigned n, double p, unsigned k);

/**
 * binomialTailAbove with `log_choose_next` = logChoose(n, k + 1)
 * supplied by the caller, so loops over p (the horizon bisections)
 * pay for the lgamma calls once. Bit-identical to the three-argument
 * form, which delegates here.
 */
double binomialTailAbove(unsigned n, double p, unsigned k,
                         double log_choose_next);

/** Binomial PMF P(X = k) computed in the log domain. */
double binomialPmf(unsigned n, double p, unsigned k);

/** binomialPmf with `log_choose` = logChoose(n, k) precomputed. */
double binomialPmf(unsigned n, double p, unsigned k, double log_choose);

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_MATH_HH
