#include "common/math.hh"

#include <limits>

#include "common/logging.hh"

namespace pcmscrub {

double
qfuncInv(double p)
{
    PCMSCRUB_ASSERT(p > 0.0 && p < 1.0, "qfuncInv needs p in (0,1)");

    // Acklam's inverse-normal-CDF approximation for Phi^{-1}(1 - p).
    static const double a[] = {
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00,
    };
    static const double b[] = {
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01,
    };
    static const double c[] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00,
    };
    static const double d[] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00,
    };

    const double q = 1.0 - p; // We invert the CDF at q.
    const double plow = 0.02425;
    double x;
    if (q < plow) {
        const double r = std::sqrt(-2.0 * std::log(q));
        x = (((((c[0]*r + c[1])*r + c[2])*r + c[3])*r + c[4])*r + c[5]) /
            ((((d[0]*r + d[1])*r + d[2])*r + d[3])*r + 1.0);
    } else if (q <= 1.0 - plow) {
        const double r = q - 0.5;
        const double s = r * r;
        x = (((((a[0]*s + a[1])*s + a[2])*s + a[3])*s + a[4])*s + a[5])*r /
            (((((b[0]*s + b[1])*s + b[2])*s + b[3])*s + b[4])*s + 1.0);
    } else {
        const double r = std::sqrt(-2.0 * std::log1p(-q));
        x = -(((((c[0]*r + c[1])*r + c[2])*r + c[3])*r + c[4])*r + c[5]) /
            ((((d[0]*r + d[1])*r + d[2])*r + d[3])*r + 1.0);
    }

    // Two Newton refinements against qfunc directly. Refining on the
    // upper tail (not the CDF) preserves *relative* accuracy for the
    // tiny p this code exists for; the CDF form would lose it to
    // 1-minus cancellation.
    for (int iter = 0; iter < 2; ++iter) {
        const double pdf = std::exp(-x * x / 2.0) /
            std::sqrt(2.0 * M_PI);
        if (pdf <= 0.0)
            break;
        x += (qfunc(x) - p) / pdf;
    }
    return x;
}

namespace {

/**
 * log|Gamma(x)|. std::lgamma stores the sign in the global `signgam`,
 * a data race when shard tasks evaluate horizons concurrently; the
 * reentrant form computes the same value.
 */
double
logGamma(double x)
{
    int sign;
    return ::lgamma_r(x, &sign);
}

} // namespace

double
logChoose(unsigned n, unsigned k)
{
    if (k > n)
        return -std::numeric_limits<double>::infinity();
    return logGamma(n + 1.0) - logGamma(k + 1.0) - logGamma(n - k + 1.0);
}

double
binomialPmf(unsigned n, double p, unsigned k, double log_choose)
{
    if (k > n)
        return 0.0;
    if (p <= 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0)
        return k == n ? 1.0 : 0.0;
    const double logPmf = log_choose + k * std::log(p) +
        (n - k) * std::log1p(-p);
    return std::exp(logPmf);
}

double
binomialPmf(unsigned n, double p, unsigned k)
{
    return binomialPmf(n, p, k, logChoose(n, k));
}

double
binomialTailAbove(unsigned n, double p, unsigned k,
                  double log_choose_next)
{
    if (p <= 0.0)
        return 0.0;
    if (p >= 1.0)
        return k < n ? 1.0 : 0.0;
    if (k >= n)
        return 0.0;

    // Sum the upper tail starting from k+1. For small p the first
    // term dominates; summing upward keeps everything positive and
    // avoids the 1-minus cancellation that would lose the tiny tail.
    double term = binomialPmf(n, p, k + 1, log_choose_next);
    double sum = term;
    const double odds = p / (1.0 - p);
    for (unsigned j = k + 2; j <= n; ++j) {
        term *= odds * static_cast<double>(n - j + 1) /
            static_cast<double>(j);
        sum += term;
        if (term < sum * 1e-18)
            break;
    }
    return sum > 1.0 ? 1.0 : sum;
}

double
binomialTailAbove(unsigned n, double p, unsigned k)
{
    return binomialTailAbove(n, p, k, logChoose(n, k + 1));
}

} // namespace pcmscrub
