/**
 * @file
 * Deterministic pseudo-random generation for simulation.
 *
 * The generator is xoshiro256** (Blackman/Vigna): fast, high quality,
 * and trivially seedable, so every experiment is reproducible from a
 * single 64-bit seed. All distribution samplers live here so that no
 * module depends on the (implementation-defined) libstdc++
 * distributions, which would make results differ across toolchains.
 */

#ifndef PCMSCRUB_COMMON_RANDOM_HH
#define PCMSCRUB_COMMON_RANDOM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcmscrub {

namespace detail {

/** SplitMix64 step: advances `state` and returns the mixed output. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * 128-layer ziggurat tables for the standard normal (Marsaglia/Tsang
 * with Doornik's base-strip constants). x[i] are the layer right
 * edges (x[0] is the widened base strip, x[128] = 0), f[i] =
 * exp(-x^2/2) at each edge, ratio[i] = x[i+1]/x[i] the
 * rectangle-accept bound.
 */
struct ZigTables
{
    double x[129];
    double f[129];
    double ratio[128];
};

/**
 * The process-wide tables, built once on first use from libm — the
 * same determinism class as the Box-Muller path, which also leans on
 * libm's log/sin/cos being stable on a given host. [[gnu::const]]
 * lets callers hoist the lookup out of per-cell sampling loops.
 */
[[gnu::const]] const ZigTables &zigTables();

} // namespace detail

/**
 * Full Random generator state, exposed for checkpointing. The spare
 * normal must be captured too: Box-Muller produces pairs, and losing
 * a cached spare would desynchronise a resumed run from the straight
 * run on the very next normal() draw.
 */
struct RandomState
{
    std::uint64_t s[4];
    double spareNormal;
    bool hasSpare;
};

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 */
class Random
{
  public:
    /** Seed via splitmix64 expansion of one 64-bit value. */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t sm = seed;
        for (auto &word : s_)
            word = detail::splitmix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t next() { return step(s_); }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) without modulo bias. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Standard normal via Box-Muller with spare caching. */
    double normal();

    /**
     * Standard normal via a 128-layer ziggurat: no transcendentals
     * on the ~98% fast path, one raw draw per sample in the common
     * case, and no spare caching (checkpoint state is untouched).
     * A distinct sampler rather than a normal() replacement: the two
     * consume different draw counts, so every call site is pinned to
     * one or the other forever to keep sequences reproducible. The
     * manufacturing streams (QuantSpec::sampleManufacturing /
     * CellModel::initialize) use this one.
     *
     * The ~98% rectangle-accept path is inline (one next(), two
     * table loads, one multiply); rejections fall through to the
     * out-of-line tail/wedge resolver with an identical draw
     * sequence.
     */
    double normalZig()
    {
        const std::uint64_t bits = next();
        double z;
        if (zigFast(bits, z)) [[likely]]
            return z;
        return normalZigSlow(bits);
    }

    /**
     * Fill out[0..n) with ziggurat normals: exactly the values and
     * the end state of n normalZig() calls in order. Batched
     * consumers draw a whole line's normals here, then scatter them
     * without data-dependent branches.
     */
    void fillNormalZig(double *out, std::size_t n)
    {
        // The state lives in locals for the loop (a member array
        // would be stored back every draw for the rare slow call).
        std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t bits = step(s);
            if (zigFast(bits, out[i])) [[likely]]
                continue;
            for (int w = 0; w < 4; ++w)
                s_[w] = s[w];
            out[i] = normalZigSlow(bits);
            for (int w = 0; w < 4; ++w)
                s[w] = s_[w];
        }
        for (int w = 0; w < 4; ++w)
            s_[w] = s[w];
    }

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Log-normal: exp of normal(mu, sigma) of the underlying normal. */
    double logNormal(double mu, double sigma);

    /** Exponential with the given rate (lambda). */
    double exponential(double rate);

    /**
     * Binomial(n, p) sample.
     *
     * Uses exact inversion for small n*p (the common case here: few
     * expected errors per line) and a clamped normal approximation
     * when n*p is large enough for it to be accurate.
     */
    std::uint64_t binomial(std::uint64_t n, double p);

    /** Poisson(lambda) sample (inversion for small, PTRS for large). */
    std::uint64_t poisson(double lambda);

    /**
     * Poisson(lambda) with the inversion limit precomputed by the
     * caller: `exp_neg_lambda` must equal std::exp(-lambda). Draws
     * the exact sequence poisson(lambda) draws — the overload only
     * hoists the per-call exp() out of rate-constant hot loops (the
     * fault injector samples the same campaign rate per visited
     * span). Large lambdas (>= 30) ignore the hint and delegate.
     */
    std::uint64_t poisson(double lambda, double exp_neg_lambda);

    /**
     * Counter-based stream derivation: (seed, streamId) -> an
     * independent generator, with no shared state between streams.
     * The result depends only on the two inputs, so shard streams
     * are reproducible regardless of how many other streams exist or
     * in what order they are created — the basis of the parallel
     * engine's bit-identical determinism.
     */
    static Random stream(std::uint64_t seed, std::uint64_t streamId)
    {
        // Mix the stream id through splitmix64 before combining so
        // that consecutive ids (shard 0, 1, 2, ...) land far apart in
        // seed space; the Random constructor then expands the
        // combined value into the full 256-bit xoshiro state.
        std::uint64_t sm = streamId ^ 0xa0761d6478bd642fULL;
        return Random(seed ^ detail::splitmix64(sm));
    }

    /** Snapshot the full generator state. */
    RandomState state() const
    {
        return RandomState{{s_[0], s_[1], s_[2], s_[3]},
                           spareNormal_, hasSpare_};
    }

    /** Restore a state captured by state(). */
    void setState(const RandomState &state)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = state.s[i];
        spareNormal_ = state.spareNormal;
        hasSpare_ = state.hasSpare;
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * normalZig()'s rectangle-accept fast path for one raw draw:
     * true with the normal in `z`, or false when the slow resolver
     * must take over. One raw draw carries everything: 53 mantissa
     * bits (11..63), the layer (0..6), the sign (7).
     */
    static bool zigFast(std::uint64_t bits, double &z)
    {
        const detail::ZigTables &t = detail::zigTables();
        const unsigned layer = static_cast<unsigned>(bits & 127);
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
        if (!(u < t.ratio[layer]))
            return false;
        // Branchless sign: bit 7 moved onto the IEEE sign bit. Exact
        // match for multiplying by ±1 — negation never rounds —
        // without a 50/50-unpredictable branch.
        const double mag = u * t.x[layer];
        z = std::bit_cast<double>(std::bit_cast<std::uint64_t>(mag) ^
                                  ((bits & 128) << 56));
        return true;
    }

    /** One xoshiro256** step on a state array: output, then advance. */
    static std::uint64_t step(std::uint64_t *s)
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /**
     * Ziggurat rejection resolver: base-strip tail and wedge accept
     * for the raw draw that failed the inline rectangle test, looping
     * on fresh draws until one is accepted.
     */
    double normalZigSlow(std::uint64_t bits);

    std::uint64_t s_[4];
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

/**
 * Zipf-distributed integer sampler over [0, n) with exponent theta.
 *
 * Precomputes the harmonic normalisation once; sampling uses the
 * standard rejection-free inverse-CDF approximation of Gray et al.
 * (as used in YCSB), which is O(1) per sample.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t n, double theta);

    /** Draw one item index in [0, n). */
    std::uint64_t sample(Random &rng) const;

    std::uint64_t items() const { return n_; }
    double theta() const { return theta_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_RANDOM_HH
