/**
 * @file
 * Tests for the Gaussian tail and binomial helpers that the drift
 * model and Monte-Carlo engine are built on.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.hh"

namespace pcmscrub {
namespace {

TEST(QFunc, KnownValues)
{
    EXPECT_NEAR(qfunc(0.0), 0.5, 1e-15);
    EXPECT_NEAR(qfunc(1.0), 0.15865525393145707, 1e-12);
    EXPECT_NEAR(qfunc(3.0), 1.3498980316300946e-3, 1e-12);
    EXPECT_NEAR(qfunc(6.0), 9.865876450376946e-10, 1e-18);
}

TEST(QFunc, SymmetricAroundZero)
{
    for (const double z : {0.1, 0.7, 1.9, 3.3}) {
        EXPECT_NEAR(qfunc(z) + qfunc(-z), 1.0, 1e-14) << "z=" << z;
    }
}

TEST(QFunc, DeepTailStaysPositiveAndMonotonic)
{
    double prev = 1.0;
    for (double z = 0.0; z <= 37.0; z += 0.5) {
        const double q = qfunc(z);
        EXPECT_GT(q, 0.0) << "z=" << z;
        EXPECT_LT(q, prev) << "z=" << z;
        prev = q;
    }
}

TEST(QFuncInv, RoundTripsAcrossMagnitudes)
{
    for (const double p : {0.4, 0.1, 1e-3, 1e-6, 1e-9, 1e-12}) {
        const double z = qfuncInv(p);
        EXPECT_NEAR(qfunc(z), p, p * 1e-6) << "p=" << p;
    }
}

TEST(QFuncInv, CenterAndSignBehaviour)
{
    EXPECT_NEAR(qfuncInv(0.5), 0.0, 1e-12);
    EXPECT_LT(qfuncInv(0.9), 0.0);
    EXPECT_GT(qfuncInv(0.1), 0.0);
}

TEST(BinomialPmf, MatchesHandComputedValues)
{
    // Binomial(4, 0.5): pmf = {1,4,6,4,1}/16.
    EXPECT_NEAR(binomialPmf(4, 0.5, 0), 1.0 / 16, 1e-12);
    EXPECT_NEAR(binomialPmf(4, 0.5, 2), 6.0 / 16, 1e-12);
    EXPECT_NEAR(binomialPmf(4, 0.5, 4), 1.0 / 16, 1e-12);
    EXPECT_EQ(binomialPmf(4, 0.5, 5), 0.0);
}

TEST(BinomialPmf, DegenerateProbabilities)
{
    EXPECT_EQ(binomialPmf(10, 0.0, 0), 1.0);
    EXPECT_EQ(binomialPmf(10, 0.0, 1), 0.0);
    EXPECT_EQ(binomialPmf(10, 1.0, 10), 1.0);
    EXPECT_EQ(binomialPmf(10, 1.0, 9), 0.0);
}

TEST(BinomialPmf, SumsToOne)
{
    const unsigned n = 30;
    const double p = 0.17;
    double sum = 0.0;
    for (unsigned k = 0; k <= n; ++k)
        sum += binomialPmf(n, p, k);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BinomialTail, AgreesWithDirectSum)
{
    const unsigned n = 256;
    const double p = 1e-3;
    for (unsigned k = 0; k < 6; ++k) {
        double direct = 0.0;
        for (unsigned j = k + 1; j <= 20; ++j)
            direct += binomialPmf(n, p, j);
        EXPECT_NEAR(binomialTailAbove(n, p, k), direct,
                    direct * 1e-9 + 1e-30) << "k=" << k;
    }
}

TEST(BinomialTail, TinyProbabilitiesStayMeaningful)
{
    // The uncorrectable-error question: P(> 8 errors) with p = 1e-6
    // over 256 cells must come out ~C(256,9) p^9, not zero.
    const double tail = binomialTailAbove(256, 1e-6, 8);
    EXPECT_GT(tail, 0.0);
    EXPECT_LT(tail, 1e-35);
    const double firstTerm = binomialPmf(256, 1e-6, 9);
    EXPECT_NEAR(tail, firstTerm, firstTerm * 1e-3);
}

TEST(BinomialTail, EdgeCases)
{
    EXPECT_EQ(binomialTailAbove(10, 0.0, 0), 0.0);
    EXPECT_EQ(binomialTailAbove(10, 1.0, 9), 1.0);
    EXPECT_EQ(binomialTailAbove(10, 1.0, 10), 0.0);
    EXPECT_EQ(binomialTailAbove(10, 0.3, 10), 0.0);
    EXPECT_NEAR(binomialTailAbove(1, 0.25, 0), 0.25, 1e-12);
}

TEST(Log1mexp, AccurateNearZeroAndFar)
{
    // x = -1e-10: log(1 - e^x) ~ log(1e-10).
    EXPECT_NEAR(log1mexp(-1e-10), std::log(1e-10), 1e-6);
    EXPECT_NEAR(log1mexp(-50.0), -std::exp(-50.0), 1e-30);
    EXPECT_NEAR(std::exp(log1mexp(-0.5)), 1.0 - std::exp(-0.5), 1e-12);
}

/** The tail with its first term's log-choose evaluated inline. */
double
referenceTailAbove(unsigned n, double p, unsigned k)
{
    if (p <= 0.0)
        return 0.0;
    if (p >= 1.0)
        return k < n ? 1.0 : 0.0;
    if (k >= n)
        return 0.0;
    const unsigned first = k + 1;
    const double logChoose = std::lgamma(n + 1.0) -
        std::lgamma(first + 1.0) - std::lgamma(n - first + 1.0);
    double term = std::exp(logChoose + first * std::log(p) +
                           (n - first) * std::log1p(-p));
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

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(BinomialTail, HoistedLogChooseIsBitIdentical)
{
    std::vector<double> ps = {-1e-3, 0.0, 1.0, 1.5};
    for (int i = 0; i <= 140; ++i)
        ps.push_back(1e-15 * std::pow(10.0, i * 0.1)); // up to 1e-1
    for (double p = 0.15; p <= 0.5; p += 0.05)
        ps.push_back(p);
    for (const unsigned n : {288u, 296u}) {
        std::vector<unsigned> ks = {n - 1, n, n + 1};
        for (unsigned k = 0; k <= 8; ++k)
            ks.push_back(k);
        for (const unsigned k : ks) {
            const double logChooseNext = logChoose(n, k + 1);
            for (const double p : ps) {
                const double want = referenceTailAbove(n, p, k);
                EXPECT_EQ(bits(binomialTailAbove(n, p, k)), bits(want))
                    << "n=" << n << " k=" << k << " p=" << p;
                EXPECT_EQ(bits(binomialTailAbove(n, p, k, logChooseNext)),
                          bits(want))
                    << "n=" << n << " k=" << k << " p=" << p;
            }
        }
    }
}

TEST(BinomialPmf, HoistedLogChooseIsBitIdentical)
{
    for (const unsigned n : {288u, 296u}) {
        for (unsigned k = 0; k <= 9; ++k) {
            const double logC = std::lgamma(n + 1.0) -
                std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
            EXPECT_EQ(bits(logChoose(n, k)), bits(logC));
            for (const double p : {1e-12, 1e-6, 1e-3, 0.25}) {
                const double want = std::exp(
                    logC + k * std::log(p) + (n - k) * std::log1p(-p));
                EXPECT_EQ(bits(binomialPmf(n, p, k)), bits(want))
                    << "n=" << n << " k=" << k << " p=" << p;
            }
        }
        EXPECT_EQ(logChoose(n, n + 1),
                  -std::numeric_limits<double>::infinity());
    }
}

TEST(BinomialTail, MonotonicInPAndK)
{
    EXPECT_LT(binomialTailAbove(64, 1e-4, 2),
              binomialTailAbove(64, 1e-3, 2));
    EXPECT_LT(binomialTailAbove(64, 1e-3, 3),
              binomialTailAbove(64, 1e-3, 2));
}

} // namespace
} // namespace pcmscrub
