#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace pcmscrub {

double
Random::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Random::uniformInt(std::uint64_t bound)
{
    PCMSCRUB_ASSERT(bound > 0, "uniformInt bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Random::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Random::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    spareNormal_ = radius * std::sin(angle);
    hasSpare_ = true;
    return radius * std::cos(angle);
}

double
Random::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

namespace {

constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

} // namespace

namespace detail {

const ZigTables &
zigTables()
{
    static const ZigTables tables = [] {
        ZigTables t;
        t.x[0] = kZigV / std::exp(-0.5 * kZigR * kZigR);
        t.x[1] = kZigR;
        t.x[128] = 0.0;
        for (int i = 2; i < 128; ++i) {
            t.x[i] = std::sqrt(-2.0 *
                std::log(kZigV / t.x[i - 1] +
                         std::exp(-0.5 * t.x[i - 1] * t.x[i - 1])));
        }
        for (int i = 0; i <= 128; ++i)
            t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
        for (int i = 0; i < 128; ++i)
            t.ratio[i] = t.x[i + 1] / t.x[i];
        return t;
    }();
    return tables;
}

} // namespace detail

double
Random::normalZigSlow(std::uint64_t bits)
{
    const detail::ZigTables &t = detail::zigTables();
    for (;;) {
        const unsigned layer = static_cast<unsigned>(bits & 127);
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
        const double sign = (bits & 128) ? -1.0 : 1.0;
        if (u < t.ratio[layer])
            return sign * u * t.x[layer];
        if (layer == 0) {
            // Exact tail beyond R (Marsaglia's method); 1-uniform()
            // keeps the logs' arguments in (0, 1].
            double xt, yt;
            do {
                xt = -std::log(1.0 - uniform()) / kZigR;
                yt = -std::log(1.0 - uniform());
            } while (yt + yt < xt * xt);
            return sign * (kZigR + xt);
        }
        const double x = u * t.x[layer];
        if (t.f[layer + 1] +
                uniform() * (t.f[layer] - t.f[layer + 1]) <
            std::exp(-0.5 * x * x))
            return sign * x;
        bits = next();
    }
}

double
Random::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Random::exponential(double rate)
{
    PCMSCRUB_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

std::uint64_t
Random::binomial(std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;

    // Work with the smaller tail for numerical stability.
    const bool flipped = p > 0.5;
    const double q = flipped ? 1.0 - p : p;
    const double np = static_cast<double>(n) * q;

    std::uint64_t k;
    if (np < 30.0) {
        // Exact inversion: walk the CDF. Expected cost O(np).
        const double logOneMinusQ = std::log1p(-q);
        // P(X = 0) = (1-q)^n.
        double pmf = std::exp(static_cast<double>(n) * logOneMinusQ);
        double cdf = pmf;
        double u = uniform();
        k = 0;
        const double ratio = q / (1.0 - q);
        while (u > cdf && k < n) {
            ++k;
            pmf *= ratio *
                static_cast<double>(n - k + 1) / static_cast<double>(k);
            cdf += pmf;
            if (pmf < 1e-300)
                break; // Underflow guard; tail mass is negligible.
        }
    } else {
        // Normal approximation with continuity correction, clamped.
        const double mean = np;
        const double sd = std::sqrt(np * (1.0 - q));
        const double draw = std::round(normal(mean, sd));
        if (draw < 0.0)
            k = 0;
        else if (draw > static_cast<double>(n))
            k = n;
        else
            k = static_cast<std::uint64_t>(draw);
    }
    return flipped ? n - k : k;
}

std::uint64_t
Random::poisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth inversion in the log domain for stability.
        const double limit = std::exp(-lambda);
        double product = uniform();
        std::uint64_t k = 0;
        while (product > limit) {
            ++k;
            product *= uniform();
        }
        return k;
    }
    // Normal approximation for large lambda.
    const double draw = std::round(normal(lambda, std::sqrt(lambda)));
    return draw < 0.0 ? 0 : static_cast<std::uint64_t>(draw);
}

std::uint64_t
Random::poisson(double lambda, double exp_neg_lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda >= 30.0)
        return poisson(lambda); // Hint unused on the normal branch.
    double product = uniform();
    std::uint64_t k = 0;
    while (product > exp_neg_lambda) {
        ++k;
        product *= uniform();
    }
    return k;
}

namespace {

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

} // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    PCMSCRUB_ASSERT(n > 0, "Zipf needs at least one item");
    PCMSCRUB_ASSERT(theta > 0.0 && theta < 1.0,
                    "Zipf theta must lie in (0, 1); got %f", theta);
    zeta2_ = zeta(2, theta);
    zetan_ = zeta(n, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
}

std::uint64_t
ZipfGenerator::sample(Random &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double spread = static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t item = static_cast<std::uint64_t>(spread);
    return item >= n_ ? n_ - 1 : item;
}

} // namespace pcmscrub
