/**
 * @file
 * AVX2 sense and margin kernels: eight cells per step over the
 * quantized planes.
 *
 * Exactness argument, piece by piece (the oracle test checks the
 * conclusion, this is why it holds):
 *
 *  - The float decode is a gather from the very LUTs the scalar
 *    decode indexes (logR0Lut / nuLut), so the f32 inputs are the
 *    same bits.
 *  - cvtps_pd is exact (every f32 is representable as f64), and the
 *    drift evaluation multiplies then adds as two separately rounded
 *    f64 operations — the same shape the scalar expression
 *    `logR0 + nu * u` compiles to, because -ffp-contract=off forbids
 *    FMA fusion in both paths.
 *  - Level selection is three ordered > compares; the scalar loop's
 *    "last threshold crossed wins" collapses to pure mask algebra on
 *    the three compare masks, with no monotonicity assumption.
 *  - Stuck cells (nu index 255) bypass the float path entirely: their
 *    sensed Gray symbol is the stored gray-plane symbol verbatim
 *    (sense = levelToGray(grayToLevel(g)) = g), so the blend copies
 *    the packed plane bytes. The nu LUT holds 0.0f at the sentinel,
 *    keeping the dead lanes' gathers harmless.
 *
 * The vector path requires a uniform write clock (no overlay): one
 * drift age term covers the line. Diverged lines and sub-vector
 * tails run the shared scalar reference helpers (kernels_impl.hh).
 */

#include "pcm/kernels_simd.hh"

#include <cstring>
#include <limits>

#include "common/random.hh"
#include "pcm/cell.hh"
#include "pcm/kernels_impl.hh"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pcmscrub {
namespace kernels {
namespace simdk {

#if defined(__AVX2__)

namespace {

/**
 * spread8[m] places bit b of the 8-bit mask m at bit 2b — the
 * per-cell mask-to-2-bit-symbol expansion used when packing eight
 * sensed cells into 16 codeword bits.
 */
struct SpreadTable
{
    std::uint16_t v[256];
};

constexpr SpreadTable
makeSpreadTable()
{
    SpreadTable t{};
    for (unsigned m = 0; m < 256; ++m) {
        std::uint16_t s = 0;
        for (unsigned b = 0; b < 8; ++b) {
            if (m & (1u << b))
                s = static_cast<std::uint16_t>(s | (1u << (2 * b)));
        }
        t.v[m] = s;
    }
    return t;
}

constexpr SpreadTable spread8 = makeSpreadTable();

/** Eight cells decoded and drift-evaluated, ready to compare. */
struct Decoded8
{
    __m256d logRLo;       //!< Drifted logR, lanes 0..3.
    __m256d logRHi;       //!< Drifted logR, lanes 4..7.
    unsigned stuck;       //!< Bit per lane: nu index == sentinel.
    std::uint32_t gray16; //!< Packed 2-bit symbols, plane bytes.
};

/**
 * Decode cells [i, i+8) from the quantized planes and evaluate
 * drift at age term u. The caller guarantees i+8 <= count and a
 * uniform write clock.
 */
inline Decoded8
decode8(const CellConstSpan &cells, std::size_t i, double u)
{
    const __m256i logRq = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(cells.logRq + i)));
    const __m256i nuIdx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(cells.nuIdx + i)));

    // Two packed-gray bytes hold the eight 2-bit symbols.
    const std::uint32_t gray16 =
        static_cast<std::uint32_t>(cells.gray[i >> 2]) |
        (static_cast<std::uint32_t>(cells.gray[(i >> 2) + 1]) << 8);
    const __m256i grayLanes = _mm256_and_si256(
        _mm256_srlv_epi32(
            _mm256_set1_epi32(static_cast<int>(gray16)),
            _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14)),
        _mm256_set1_epi32(3));

    // logR0 decode: LUT row is selected by the stored gray symbol,
    // column by the quantized byte — identical to decodeLogR0().
    const __m256i lutIdx =
        _mm256_or_si256(_mm256_slli_epi32(grayLanes, 8), logRq);
    const __m256 logR0f =
        _mm256_i32gather_ps(cells.spec->logR0LutData(), lutIdx, 4);
    const __m256 nuf =
        _mm256_i32gather_ps(cells.spec->nuLutData(), nuIdx, 4);

    Decoded8 out;
    const __m256d uVec = _mm256_set1_pd(u);
    out.logRLo = _mm256_add_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(logR0f)),
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(nuf)),
                      uVec));
    out.logRHi = _mm256_add_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(logR0f, 1)),
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(nuf, 1)),
                      uVec));
    out.stuck = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(
            nuIdx, _mm256_set1_epi32(QuantSpec::kStuckNuIdx)))));
    out.gray16 = gray16;
    return out;
}

/** Bit-per-lane mask of logR > thr (strict, ordered). */
inline unsigned
greaterMask(const Decoded8 &d, double thr)
{
    const __m256d t = _mm256_set1_pd(thr);
    const unsigned lo = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(d.logRLo, t, _CMP_GT_OQ)));
    const unsigned hi = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(d.logRHi, t, _CMP_GT_OQ)));
    return lo | (hi << 4);
}

// ==== 64-bit vector arithmetic for the program pipelines ==========
//
// The batched program kernels run four cells per step in 64-bit
// lanes (doubles and the manufacturing streams' u64 state). The
// helpers below are exact: where the scalar path's arithmetic is a
// single IEEE operation, the lane op is the same operation on the
// same bits, so results match bit for bit. Only the transcendental
// replacements (vlogPos / vexpF) approximate — and every consumer
// peels lanes that sit within a guard margin of a decision boundary
// back to the scalar reference path.

/** Lane-wise x * c mod 2^64 (c a compile-time-ish u64 constant). */
inline __m256i
mul64(__m256i x, std::uint64_t c)
{
    const __m256i cl = _mm256_set1_epi64x(
        static_cast<long long>(c & 0xffffffffULL));
    const __m256i ch =
        _mm256_set1_epi64x(static_cast<long long>(c >> 32));
    const __m256i lo = _mm256_mul_epu32(x, cl);
    const __m256i mid =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), cl),
                         _mm256_mul_epu32(x, ch));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

/** Lane-wise detail::splitmix64: advances state, returns the mix. */
inline __m256i
vsplitmix(__m256i &state)
{
    state = _mm256_add_epi64(
        state,
        _mm256_set1_epi64x(
            static_cast<long long>(0x9e3779b97f4a7c15ULL)));
    __m256i z = state;
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              0xbf58476d1ce4e5b9ULL);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              0x94d049bb133111ebULL);
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

inline __m256i
vrotl(__m256i x, int k)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
}

/** Four independent xoshiro256** generators, one per 64-bit lane. */
struct VXoshiro
{
    __m256i s0, s1, s2, s3;

    /**
     * Seed each lane the way Random's constructor does: four
     * splitmix64 expansions of the lane's combined seed value.
     */
    static VXoshiro seeded(__m256i combined)
    {
        VXoshiro g;
        g.s0 = vsplitmix(combined);
        g.s1 = vsplitmix(combined);
        g.s2 = vsplitmix(combined);
        g.s3 = vsplitmix(combined);
        return g;
    }

    /** Lane-wise Random::next(). */
    __m256i next()
    {
        // s1 * 5 = s1 + (s1 << 2); rotl 7; * 9 = x + (x << 3).
        const __m256i x5 =
            _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
        const __m256i r7 = vrotl(x5, 7);
        const __m256i result =
            _mm256_add_epi64(r7, _mm256_slli_epi64(r7, 3));
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = vrotl(s3, 45);
        return result;
    }
};

/**
 * Exact u64 -> double conversion for lane values below 2^53: each
 * 32-bit half converts exactly via the 2^52 bias trick, and
 * hi * 2^32 + lo is exact because the true sum is a representable
 * integer. Matches the scalar static_cast bit for bit (which is
 * also exact below 2^53).
 */
inline __m256d
u64ToDouble53(__m256i v)
{
    const __m256i magic = _mm256_set1_epi64x(
        static_cast<long long>(0x4330000000000000ULL));
    const __m256d k52 = _mm256_set1_pd(0x1.0p52);
    const __m256d lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(
                v, _mm256_set1_epi64x(0xffffffffLL)),
            magic)),
        k52);
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_srli_epi64(v, 32), magic)),
        k52);
    return _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p32)),
                         lo);
}

/**
 * Lane-wise lround/std::round semantics (round half away from
 * zero), exact for every input. roundeven never misses the nearest
 * integer except at an exact .5 tie it resolved toward zero — and
 * there d = p - r keeps p's sign, so the fixup adds copysign(1, p)
 * precisely on ties roundeven pulled the wrong way.
 */
inline __m256d
vroundHalfAway(__m256d p)
{
    const __m256d r = _mm256_round_pd(
        p, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d d = _mm256_sub_pd(p, r);
    const __m256i absMask =
        _mm256_set1_epi64x(0x7fffffffffffffffLL);
    const __m256i signMask = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    const __m256d tie = _mm256_cmp_pd(
        _mm256_and_pd(d, _mm256_castsi256_pd(absMask)),
        _mm256_set1_pd(0.5), _CMP_EQ_OQ);
    const __m256i sx = _mm256_and_si256(
        _mm256_xor_si256(_mm256_castpd_si256(d),
                         _mm256_castpd_si256(p)),
        signMask);
    const __m256d same = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(sx, _mm256_setzero_si256()));
    const __m256d one = _mm256_or_pd(
        _mm256_and_pd(p, _mm256_castsi256_pd(signMask)),
        _mm256_set1_pd(1.0));
    const __m256d adj =
        _mm256_and_pd(_mm256_and_pd(tie, same), one);
    return _mm256_add_pd(r, adj);
}

/**
 * Lane-wise natural log for positive normal doubles (callers blend
 * non-positive / subnormal lanes to 1.0 and peel them): exponent
 * and mantissa split by bit ops, mantissa folded into [sqrt2/2,
 * sqrt2], then the atanh series ln(m) = 2s(1 + s^2/3 + ... +
 * s^14/15) with s = (m-1)/(m+1), |s| <= 0.1716. Absolute error is
 * below ~3e-13 over the full exponent range — callers guard every
 * decision boundary with margins of 1e-8 (ln-domain compares) and
 * 1e-6 quantizer steps, orders of magnitude wider.
 */
inline __m256d
vlogPos(__m256d w)
{
    const __m256i bits = _mm256_castpd_si256(w);
    const __m256i rawExp = _mm256_and_si256(
        _mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7ff));
    const __m256i mant = _mm256_or_si256(
        _mm256_and_si256(bits,
                         _mm256_set1_epi64x(0xfffffffffffffLL)),
        _mm256_set1_epi64x(0x3ff0000000000000LL));
    __m256d m = _mm256_castsi256_pd(mant); // [1, 2)
    // Fold m > sqrt2 to m/2 (exact), bumping the exponent.
    const __m256d fold = _mm256_cmp_pd(
        m, _mm256_set1_pd(1.4142135623730951), _CMP_GT_OQ);
    m = _mm256_blendv_pd(
        m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
    const __m256i e = _mm256_add_epi64(
        _mm256_sub_epi64(rawExp, _mm256_set1_epi64x(1023)),
        _mm256_and_si256(_mm256_castpd_si256(fold),
                         _mm256_set1_epi64x(1)));
    // Exact small-int conversion of e via the bias trick.
    const __m256d ed = _mm256_sub_pd(
        u64ToDouble53(
            _mm256_add_epi64(e, _mm256_set1_epi64x(2048))),
        _mm256_set1_pd(2048.0));

    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d s = _mm256_div_pd(_mm256_sub_pd(m, one),
                                    _mm256_add_pd(m, one));
    const __m256d s2 = _mm256_mul_pd(s, s);
    __m256d p = _mm256_set1_pd(1.0 / 15.0);
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(1.0 / 13.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(1.0 / 11.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(1.0 / 9.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(1.0 / 7.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(1.0 / 5.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(1.0 / 3.0));
    p = _mm256_mul_pd(p, s2);
    const __m256d twoS = _mm256_add_pd(s, s);
    const __m256d lnM =
        _mm256_add_pd(twoS, _mm256_mul_pd(twoS, p));
    return _mm256_add_pd(
        _mm256_mul_pd(ed, _mm256_set1_pd(0.6931471805599453)),
        lnM);
}

/**
 * Lane-wise float(exp(x)): Cody-Waite range reduction (hi/lo ln2
 * split keeps k * ln2hi exact for |k| <= 2^10), degree-13 Taylor,
 * 2^k via exponent bits. The double result y is within ~2e-15
 * relative of libm's — far tighter than the 1e-13 slack budget —
 * and a lane is *accepted* only when rounding y to float provably
 * gives float(exp_true): the distance from y to its float roundtrip
 * must clear the float's half-ulp by more than slack (the half-ulp
 * halves on the low side of an exact power of two, where the
 * binade's spacing changes). Everything else — including |k| > 960
 * (approaching float overflow/subnormal territory) and subnormal or
 * non-finite floats — reports in `peel` for scalar redo.
 */
inline void
vexpF(__m256d x, __m128 &out_f, unsigned &peel)
{
    const __m256d k = _mm256_round_pd(
        _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634074)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d r = _mm256_sub_pd(
        _mm256_sub_pd(
            x,
            _mm256_mul_pd(
                k, _mm256_set1_pd(6.93147180369123816490e-01))),
        _mm256_mul_pd(
            k, _mm256_set1_pd(1.90821492927058770002e-10)));

    __m256d p = _mm256_set1_pd(1.0 / 6227020800.0);
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 479001600.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 39916800.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 3628800.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 362880.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 40320.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 5040.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 720.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 120.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 24.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 6.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r),
                      _mm256_set1_pd(1.0 / 2.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));

    const __m128i ki = _mm256_cvtpd_epi32(k);
    const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(ki),
                         _mm256_set1_epi64x(1023)),
        52));
    const __m256d y = _mm256_mul_pd(p, scale);

    const __m256d absMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const unsigned kBad = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_and_pd(k, absMask),
                      _mm256_set1_pd(960.0), _CMP_GT_OQ)));

    const __m128 f = _mm256_cvtpd_ps(y);
    const __m256d fd = _mm256_cvtps_pd(f);
    const __m256i fdBits = _mm256_castpd_si256(fd);
    const __m256i fdExp = _mm256_and_si256(
        _mm256_srli_epi64(fdBits, 52), _mm256_set1_epi64x(0x7ff));
    // Normal, finite float range: biased double exponent in
    // [897, 1150] (unbiased [-126, 127]).
    const unsigned fdBad = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(897), fdExp),
            _mm256_cmpgt_epi64(fdExp,
                               _mm256_set1_epi64x(1150))))));

    __m256i halfBits = _mm256_slli_epi64(
        _mm256_sub_epi64(fdExp, _mm256_set1_epi64x(24)), 52);
    const __m256i mantZero = _mm256_cmpeq_epi64(
        _mm256_and_si256(fdBits,
                         _mm256_set1_epi64x(0xfffffffffffffLL)),
        _mm256_setzero_si256());
    const __m256i below =
        _mm256_castpd_si256(_mm256_cmp_pd(y, fd, _CMP_LT_OQ));
    halfBits = _mm256_blendv_epi8(
        halfBits,
        _mm256_slli_epi64(
            _mm256_sub_epi64(fdExp, _mm256_set1_epi64x(25)), 52),
        _mm256_and_si256(mantZero, below));

    const __m256d err =
        _mm256_and_pd(_mm256_sub_pd(y, fd), absMask);
    const __m256d slack = _mm256_mul_pd(
        _mm256_and_pd(y, absMask), _mm256_set1_pd(1e-13));
    const unsigned unsure = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(
            _mm256_sub_pd(_mm256_castsi256_pd(halfBits), err),
            slack, _CMP_LE_OQ)));

    peel = (kBad | fdBad | unsure) & 0xfu;
    out_f = f;
}

/** One vector ziggurat draw: z values plus the fast-path accepts. */
struct Zig4
{
    __m256d z;
    unsigned accept;
};

/**
 * Lane-wise Random::normalZig() fast path: same raw draw, same
 * exact u conversion (the scalar cast is exact below 2^53), same
 * table loads and single multiply, so accepted lanes carry the
 * scalar values bit for bit. Rejecting lanes (and any lane of a
 * cell whose *other* draw rejects) are re-derived wholesale through
 * the scalar Random — per-cell streams are independent, so the redo
 * is exact.
 */
inline Zig4
zigDraw4(VXoshiro &g, const pcmscrub::detail::ZigTables &t)
{
    const __m256i bits = g.next();
    const __m256i layer =
        _mm256_and_si256(bits, _mm256_set1_epi64x(127));
    const __m256d u = _mm256_mul_pd(
        u64ToDouble53(_mm256_srli_epi64(bits, 11)),
        _mm256_set1_pd(0x1.0p-53));
    const __m256d ratio = _mm256_i64gather_pd(t.ratio, layer, 8);
    const __m256d xs = _mm256_i64gather_pd(t.x, layer, 8);
    const __m256d mag = _mm256_mul_pd(u, xs);
    const __m256i sign = _mm256_slli_epi64(
        _mm256_and_si256(bits, _mm256_set1_epi64x(128)), 56);
    Zig4 out;
    out.z = _mm256_castsi256_pd(
        _mm256_xor_si256(_mm256_castpd_si256(mag), sign));
    out.accept = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(u, ratio, _CMP_LT_OQ)));
    return out;
}

/**
 * Four manufacturing streams seeded like Random::stream(seed,
 * sid_base + (i + lane) << 8): the stream-id mix and the four-word
 * constructor expansion run lane-wise.
 */
inline VXoshiro
manufStreams4(std::uint64_t seed, std::uint64_t sid_base,
              std::size_t i)
{
    const __m256i sid = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(
            sid_base + (static_cast<std::uint64_t>(i) << 8))),
        _mm256_setr_epi64x(0, 1 << 8, 2 << 8, 3 << 8));
    __m256i sm = _mm256_xor_si256(
        sid, _mm256_set1_epi64x(static_cast<long long>(
                 0xa0761d6478bd642fULL)));
    const __m256i mixed = vsplitmix(sm);
    const __m256i combined = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(seed)), mixed);
    return VXoshiro::seeded(combined);
}

/**
 * Pack four integral-valued double lanes into bytes and store the
 * lanes selected by `mask` (bit per lane) at dst[0..3].
 */
inline void
storeBytes4(std::uint8_t *dst, __m256d v, unsigned mask)
{
    const __m128i ints = _mm256_cvtpd_epi32(v);
    const std::uint32_t packed = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_shuffle_epi8(
            ints, _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1,
                                -1, -1, -1, -1, -1, -1))));
    if (mask == 0xfu) {
        std::memcpy(dst, &packed, 4);
        return;
    }
    for (unsigned lane = 0; lane < 4; ++lane) {
        if (mask & (1u << lane))
            dst[lane] = static_cast<std::uint8_t>(packed >> (8 * lane));
    }
}

} // namespace

bool
available()
{
    static const bool ok = __builtin_cpu_supports("avx2") != 0;
    return ok;
}

BitVector
senseCodewordAvx2(const CellConstSpan &cells,
                  std::size_t codeword_bits,
                  const DeviceConfig &config, Tick now,
                  double threshold_shift)
{
    PCMSCRUB_ASSERT(cells.ovTicks == nullptr && cells.spec != nullptr,
                    "vector sense needs a uniform write clock");
    detail::DriftAgeCache age(now, config.driftT0Seconds);
    const double u = age.u(cells.uniformTick);
    double thresholds[mlcLevels - 1];
    for (unsigned l = 0; l + 1 < mlcLevels; ++l)
        thresholds[l] = config.readThresholdLogR[l] + threshold_shift;

    BitVector word(codeword_bits);
    std::uint64_t chunk = 0;
    unsigned filled = 0;
    std::size_t base = 0;
    std::size_t i = 0;
    for (; i + 8 <= cells.count; i += 8) {
        const Decoded8 d = decode8(cells, i, u);
        unsigned m[mlcLevels - 1];
        for (unsigned l = 0; l + 1 < mlcLevels; ++l)
            m[l] = greaterMask(d, thresholds[l]);
        // Highest threshold crossed wins, exactly like the scalar
        // loop's last-assignment semantics: level 3 iff m2, level 2
        // iff m1 & !m2, level 1 iff m0 & !m1 & !m2.
        const unsigned level2 = m[1] & ~m[2];
        const unsigned bit0 =
            (m[0] & ~m[1] & ~m[2]) | level2; // Gray bit 0.
        const unsigned bit1 = m[1] | m[2];   // Gray bit 1.
        std::uint32_t group = spread8.v[bit0 & 0xff] |
            (static_cast<std::uint32_t>(spread8.v[bit1 & 0xff]) << 1);
        // Stuck lanes read back their frozen plane symbol verbatim.
        std::uint32_t stuck2 = spread8.v[d.stuck & 0xff];
        stuck2 |= stuck2 << 1;
        group = (group & ~stuck2) | (d.gray16 & stuck2);

        chunk |= static_cast<std::uint64_t>(group) << filled;
        filled += 16;
        if (filled == 64) {
            // Clamped flush, matching the scalar loop: an odd-width
            // codeword's final chunk can overhang the word end.
            const std::size_t n = codeword_bits - base < 64
                ? codeword_bits - base : 64;
            word.deposit(base, n, chunk);
            base += 64;
            chunk = 0;
            filled = 0;
        }
    }
    // Sub-vector tail: the shared scalar reference path.
    for (; i < cells.count; ++i) {
        const std::uint64_t gray = levelToGray(detail::senseLevel(
            cells, i, config, age, threshold_shift));
        chunk |= gray << filled;
        filled += bitsPerCell;
        if (filled == 64) {
            const std::size_t n = codeword_bits - base < 64
                ? codeword_bits - base : 64;
            word.deposit(base, n, chunk);
            base += 64;
            chunk = 0;
            filled = 0;
        }
    }
    if (base < codeword_bits)
        word.deposit(base, codeword_bits - base, chunk);
    return word;
}

unsigned
marginScanCountAvx2(const CellConstSpan &cells,
                    const DeviceConfig &config, Tick now)
{
    PCMSCRUB_ASSERT(cells.ovTicks == nullptr && cells.spec != nullptr,
                    "vector margin scan needs a uniform write clock");
    detail::DriftAgeCache age(now, config.driftT0Seconds);
    const double u = age.u(cells.uniformTick);

    unsigned flagged = 0;
    std::size_t i = 0;
    for (; i + 8 <= cells.count; i += 8) {
        const Decoded8 d = decode8(cells, i, u);
        unsigned m[mlcLevels - 1]; //!< Above threshold l.
        unsigned b[mlcLevels - 1]; //!< Above threshold l - band.
        for (unsigned l = 0; l + 1 < mlcLevels; ++l) {
            m[l] = greaterMask(d, config.readThresholdLogR[l]);
            b[l] = greaterMask(d, config.readThresholdLogR[l] -
                                      config.marginBandLogR);
        }
        // Level l cells inside the band below threshold l, live
        // cells only; level 3 has no upper threshold, never flags.
        const unsigned level0 = ~(m[0] | m[1] | m[2]);
        const unsigned level1 = m[0] & ~m[1] & ~m[2];
        const unsigned level2 = m[1] & ~m[2];
        const unsigned f = ((level0 & b[0]) | (level1 & b[1]) |
                            (level2 & b[2])) &
            ~d.stuck & 0xffu;
        flagged += static_cast<unsigned>(__builtin_popcount(f));
    }
    for (; i < cells.count; ++i)
        flagged += detail::marginFlagged(cells, i, config, age);
    return flagged;
}

void
manufZScoresAvx2(std::uint64_t seed, std::uint64_t sid_base,
                 std::size_t count, double *z_e, double *z_s)
{
    const pcmscrub::detail::ZigTables &t =
        pcmscrub::detail::zigTables();
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        VXoshiro g = manufStreams4(seed, sid_base, i);
        const Zig4 zE = zigDraw4(g, t);
        unsigned ok = zE.accept;
        _mm256_storeu_pd(z_e + i, zE.z);
        if (z_s != nullptr) {
            const Zig4 zS = zigDraw4(g, t);
            ok &= zS.accept;
            _mm256_storeu_pd(z_s + i, zS.z);
        }
        unsigned pending = ~ok & 0xfu;
        while (pending != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(pending));
            pending &= pending - 1;
            const std::size_t c = i + lane;
            Random manuf = Random::stream(
                seed,
                sid_base + (static_cast<std::uint64_t>(c) << 8));
            z_e[c] = manuf.normalZig();
            if (z_s != nullptr)
                z_s[c] = manuf.normalZig();
        }
    }
    for (; i < count; ++i) {
        Random manuf = Random::stream(
            seed, sid_base + (static_cast<std::uint64_t>(i) << 8));
        z_e[i] = manuf.normalZig();
        if (z_s != nullptr)
            z_s[i] = manuf.normalZig();
    }
}

void
manufDeriveAvx2(std::uint64_t seed, std::uint64_t sid_base,
                std::size_t count, double log_median_e,
                double sigma_e, double sigma_s, float *endurance,
                float *nu_speed)
{
    const pcmscrub::detail::ZigTables &t =
        pcmscrub::detail::zigTables();
    const __m256d medE = _mm256_set1_pd(log_median_e);
    const __m256d sigE = _mm256_set1_pd(sigma_e);
    const __m256d sigS = _mm256_set1_pd(sigma_s);
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        VXoshiro g = manufStreams4(seed, sid_base, i);
        const Zig4 zE = zigDraw4(g, t);
        unsigned ok = zE.accept;
        __m128 fE;
        unsigned peelE;
        vexpF(_mm256_add_pd(medE, _mm256_mul_pd(sigE, zE.z)), fE,
              peelE);
        ok &= ~peelE;
        __m128 fS;
        if (sigma_s != 0.0) {
            const Zig4 zS = zigDraw4(g, t);
            ok &= zS.accept;
            unsigned peelS;
            vexpF(_mm256_mul_pd(sigS, zS.z), fS, peelS);
            ok &= ~peelS;
        } else {
            fS = _mm_set1_ps(1.0f);
        }
        _mm_storeu_ps(endurance + i, fE);
        _mm_storeu_ps(nu_speed + i, fS);
        unsigned pending = ~ok & 0xfu;
        while (pending != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(pending));
            pending &= pending - 1;
            const std::size_t c = i + lane;
            Random manuf = Random::stream(
                seed,
                sid_base + (static_cast<std::uint64_t>(c) << 8));
            endurance[c] = static_cast<float>(std::exp(
                log_median_e + sigma_e * manuf.normalZig()));
            nu_speed[c] = sigma_s == 0.0
                ? 1.0f
                : static_cast<float>(
                      std::exp(sigma_s * manuf.normalZig()));
        }
    }
    for (; i < count; ++i) {
        Random manuf = Random::stream(
            seed, sid_base + (static_cast<std::uint64_t>(i) << 8));
        endurance[i] = static_cast<float>(
            std::exp(log_median_e + sigma_e * manuf.normalZig()));
        nu_speed[i] = sigma_s == 0.0
            ? 1.0f
            : static_cast<float>(
                  std::exp(sigma_s * manuf.normalZig()));
    }
}

void
warmTransformAvx2(const detail::WarmTransformArgs &a)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d absMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d logRScale = _mm256_set1_pd(a.logRScale);
    const __m256d bias = _mm256_set1_pd(128.0);
    const __m256d v255 = _mm256_set1_pd(255.0);
    const __m256d medE = _mm256_set1_pd(a.logMedianE);
    const __m256d sigE = _mm256_set1_pd(a.sigmaE);
    const __m256d sigS = _mm256_set1_pd(a.sigmaS);
    const __m256d wornCut =
        _mm256_set1_pd(detail::kWarmWornLnCutoff);
    const __m256d dblMin =
        _mm256_set1_pd(std::numeric_limits<double>::min());
    const __m256d lnMin = _mm256_set1_pd(a.lnNuMin);
    const __m256d lnMax = _mm256_set1_pd(a.lnNuMax);
    const __m256d lnEps = _mm256_set1_pd(1e-8);
    const __m256d invStep = _mm256_set1_pd(a.invNuLogStep);
    const __m256d tieCut = _mm256_set1_pd(0.5 - 1e-6);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d v254 = _mm256_set1_pd(254.0);

    std::size_t i = 0;
    const std::size_t n4 = a.count & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        const unsigned gb = a.gray[i >> 2];
        const unsigned l0 =
            grayToLevel(static_cast<std::uint8_t>(gb & 3u));
        const unsigned l1 =
            grayToLevel(static_cast<std::uint8_t>((gb >> 2) & 3u));
        const unsigned l2 =
            grayToLevel(static_cast<std::uint8_t>((gb >> 4) & 3u));
        const unsigned l3 =
            grayToLevel(static_cast<std::uint8_t>((gb >> 6) & 3u));

        const __m256d z1 = _mm256_loadu_pd(a.z1 + i);
        const __m256d z2 = _mm256_loadu_pd(a.z2 + i);
        const __m256d zE = _mm256_loadu_pd(a.zE + i);

        // logRq: lround(logRScale * z1) + 128, clamped — the round,
        // add, and clamp are all exact lane ops.
        __m256d code =
            vroundHalfAway(_mm256_mul_pd(logRScale, z1));
        code = _mm256_min_pd(
            _mm256_max_pd(_mm256_add_pd(code, bias), zero), v255);
        storeBytes4(a.logRq + i, code, 0xfu);

        // Wear-out screen: lnE is the same two IEEE ops as scalar,
        // so the cutoff compare is exact; hits peel to the scalar
        // exp-and-compare.
        const __m256d lnE =
            _mm256_add_pd(medE, _mm256_mul_pd(sigE, zE));
        unsigned peel = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_cmp_pd(lnE, wornCut, _CMP_LE_OQ)));

        const __m256d lnS = a.zS == nullptr
            ? zero
            : _mm256_mul_pd(sigS, _mm256_loadu_pd(a.zS + i));

        const __m256d mu = _mm256_setr_pd(
            a.driftMu[l0], a.driftMu[l1], a.driftMu[l2],
            a.driftMu[l3]);
        const __m256d sg = _mm256_setr_pd(
            a.driftSig[l0], a.driftSig[l1], a.driftSig[l2],
            a.driftSig[l3]);
        const __m256d w = _mm256_add_pd(mu, _mm256_mul_pd(sg, z2));
        const __m256d wposM = _mm256_cmp_pd(w, zero, _CMP_GT_OQ);
        const unsigned wpos = static_cast<unsigned>(
            _mm256_movemask_pd(wposM));
        // Subnormal positive w is outside vlogPos's domain.
        peel |= wpos &
            static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(w, dblMin, _CMP_LT_OQ)));

        const __m256d lnW =
            vlogPos(_mm256_blendv_pd(one, w, wposM));
        const __m256d lnV = _mm256_add_pd(lnS, lnW);
        // Envelope compares run on the approximate log: margin
        // lanes can't be certified and peel.
        peel |= wpos &
            static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(lnV, lnMax), absMask),
                lnEps, _CMP_LT_OQ)));
        peel |= wpos &
            static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(lnV, lnMin), absMask),
                lnEps, _CMP_LT_OQ)));
        const __m256d geM = _mm256_cmp_pd(lnV, lnMax, _CMP_GE_OQ);
        const __m256d leM = _mm256_cmp_pd(lnV, lnMin, _CMP_LE_OQ);
        const unsigned ge = static_cast<unsigned>(
            _mm256_movemask_pd(geM));
        const unsigned le = static_cast<unsigned>(
            _mm256_movemask_pd(leM));
        const __m256d tq = _mm256_mul_pd(
            _mm256_sub_pd(lnV, lnMin), invStep);
        const __m256d rq = vroundHalfAway(tq);
        peel |= wpos & ~ge & ~le &
            static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(tq, rq), absMask),
                tieCut, _CMP_GT_OQ)));

        __m256d nuVal = _mm256_min_pd(
            _mm256_max_pd(_mm256_add_pd(rq, one), one), v254);
        nuVal = _mm256_blendv_pd(nuVal, one, leM);
        nuVal = _mm256_blendv_pd(nuVal, v254, geM);
        nuVal = _mm256_and_pd(nuVal, wposM); // w <= 0 -> code 0
        storeBytes4(a.nuIdx + i, nuVal, 0xfu);

        unsigned pending = peel & 0xfu;
        while (pending != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(pending));
            pending &= pending - 1;
            detail::warmTransformCell(a, i + lane);
        }
    }
    for (; i < a.count; ++i)
        detail::warmTransformCell(a, i);
}

void
programTransformAvx2(const detail::ProgramTransformArgs &a,
                     LineProgramStats &stats)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d absMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d maxIter = _mm256_set1_pd(a.maxIterations);
    const __m256d bias = _mm256_set1_pd(128.0);
    const __m256d v255 = _mm256_set1_pd(255.0);
    const __m256d v254 = _mm256_set1_pd(254.0);
    const __m256d step = _mm256_set1_pd(a.logR0Step);
    const __m256d nuMin = _mm256_set1_pd(a.nuMin);
    const __m256d nuMax = _mm256_set1_pd(a.nuMax);
    const __m256d invStep = _mm256_set1_pd(a.invNuLogStep);
    const __m256d tieCut = _mm256_set1_pd(0.5 - 1e-6);
    const unsigned lastLevel = mlcLevels - 1;

    __m256i iterSum = _mm256_setzero_si256();
    unsigned programmed = 0;
    unsigned wornOut = 0;

    std::size_t i = 0;
    const std::size_t n4 = a.count & ~static_cast<std::size_t>(3);
    for (; i < n4; i += 4) {
        std::uint32_t aliveWord;
        std::memcpy(&aliveWord, a.alive + i, 4);
        if (aliveWord == 0)
            continue; // All four stuck: nothing stored, no draws.
        const __m256i aliveMask = _mm256_cmpgt_epi64(
            _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
                static_cast<int>(aliveWord))),
            _mm256_setzero_si256());
        const unsigned am = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(aliveMask)));
        const unsigned l0 = a.level[i];
        const unsigned l1 = a.level[i + 1];
        const unsigned l2 = a.level[i + 2];
        const unsigned l3 = a.level[i + 3];

        // Iterations: exact round/clamp, 1 for extreme levels.
        const __m256i interMask = _mm256_setr_epi64x(
            l0 != 0 && l0 != lastLevel ? -1 : 0,
            l1 != 0 && l1 != lastLevel ? -1 : 0,
            l2 != 0 && l2 != lastLevel ? -1 : 0,
            l3 != 0 && l3 != lastLevel ? -1 : 0);
        __m256d iter =
            vroundHalfAway(_mm256_loadu_pd(a.dIter + i));
        iter = _mm256_min_pd(_mm256_max_pd(iter, one), maxIter);
        iter = _mm256_blendv_pd(one, iter,
                                _mm256_castsi256_pd(interMask));
        iterSum = _mm256_add_epi64(
            iterSum,
            _mm256_and_si256(
                _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(iter)),
                aliveMask));
        programmed +=
            static_cast<unsigned>(__builtin_popcount(am));

        // logR0: the float round-trip then encodeLogR0's
        // delta/step quantizer — every op the scalar's own, so no
        // peel is needed here.
        const __m256d fd = _mm256_cvtps_pd(
            _mm256_cvtpd_ps(_mm256_loadu_pd(a.dLogR + i)));
        const __m256d mean = _mm256_setr_pd(
            a.meanLogR[l0], a.meanLogR[l1], a.meanLogR[l2],
            a.meanLogR[l3]);
        __m256d code = vroundHalfAway(
            _mm256_div_pd(_mm256_sub_pd(fd, mean), step));
        code = _mm256_min_pd(
            _mm256_max_pd(_mm256_add_pd(code, bias), zero), v255);
        storeBytes4(a.logRq + i, code, am);

        // nu float: nuSpeed * max(0, dNu) with the scalar's operand
        // order (max returns 0 on NaN second… the draws are finite;
        // the order still mirrors std::max(0.0, x)).
        const __m256d nuSpd =
            _mm256_cvtps_pd(_mm_loadu_ps(a.nuSpeedF + i));
        const __m256d nuD =
            _mm256_max_pd(_mm256_loadu_pd(a.dNu + i), zero);
        const __m256d nufd = _mm256_cvtps_pd(
            _mm256_cvtpd_ps(_mm256_mul_pd(nuSpd, nuD)));

        // Post-increment write counts and the wear-out compare —
        // both conversions exact, compare identical to scalar.
        __m128i w32 = a.ovWrites != nullptr
            ? _mm_loadu_si128(
                  reinterpret_cast<const __m128i *>(a.ovWrites + i))
            : _mm_set1_epi32(static_cast<int>(a.uniformWrites));
        w32 = _mm_add_epi32(w32, _mm_set1_epi32(1));
        const __m256d wd =
            u64ToDouble53(_mm256_cvtepu32_epi64(w32));
        const __m256d endD =
            _mm256_cvtps_pd(_mm_loadu_ps(a.enduranceF + i));
        const __m256d wornM = _mm256_cmp_pd(wd, endD, _CMP_GE_OQ);
        const unsigned wm = static_cast<unsigned>(
            _mm256_movemask_pd(wornM));
        wornOut += static_cast<unsigned>(__builtin_popcount(
            wm & am));

        // encodeNu: the envelope compares are exact (linear-domain
        // doubles, the scalar's own); only the interior log-domain
        // quantizer can sit on a tie, and those lanes peel.
        const __m256d posM = _mm256_cmp_pd(nufd, zero, _CMP_GT_OQ);
        const __m256d geM = _mm256_cmp_pd(nufd, nuMax, _CMP_GE_OQ);
        const __m256d leM = _mm256_cmp_pd(nufd, nuMin, _CMP_LE_OQ);
        const __m256d interiorM = _mm256_andnot_pd(
            geM, _mm256_andnot_pd(leM, posM));
        const unsigned interior = static_cast<unsigned>(
            _mm256_movemask_pd(interiorM));
        const __m256d q = _mm256_div_pd(nufd, nuMin);
        const __m256d qSafe = _mm256_blendv_pd(one, q, interiorM);
        const __m256d tq =
            _mm256_mul_pd(vlogPos(qSafe), invStep);
        const __m256d rq = vroundHalfAway(tq);
        const unsigned tiePeel = am & ~wm & interior &
            static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(tq, rq), absMask),
                tieCut, _CMP_GT_OQ)));

        __m256d nuVal = _mm256_min_pd(
            _mm256_max_pd(_mm256_add_pd(rq, one), one), v254);
        nuVal = _mm256_blendv_pd(nuVal, one, leM);
        nuVal = _mm256_blendv_pd(nuVal, v254, geM);
        nuVal = _mm256_and_pd(nuVal, posM); // !(nu > 0) -> code 0
        nuVal = _mm256_blendv_pd(nuVal, v255, wornM);
        storeBytes4(a.nuIdx + i, nuVal, am & ~tiePeel);

        unsigned pending = tiePeel;
        while (pending != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(pending));
            pending &= pending - 1;
            const std::size_t c = i + lane;
            const float nu = static_cast<float>(
                static_cast<double>(a.nuSpeedF[c]) *
                std::max(0.0, a.dNu[c]));
            a.nuIdx[c] = detail::encodeNuValue(
                nu, a.nuMin, a.nuMax, a.invNuLogStep);
        }

        if (a.ovWrites != nullptr) {
            const __m128i storeMask = _mm_cmpgt_epi32(
                _mm_cvtepu8_epi32(_mm_cvtsi32_si128(
                    static_cast<int>(aliveWord))),
                _mm_setzero_si128());
            _mm_maskstore_epi32(
                reinterpret_cast<int *>(a.ovWrites + i), storeMask,
                w32);
            _mm256_maskstore_epi64(
                reinterpret_cast<long long *>(a.ovTicks + i),
                aliveMask,
                _mm256_set1_epi64x(
                    static_cast<long long>(a.now)));
        }
    }

    alignas(32) long long iterLanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(iterLanes),
                       iterSum);
    stats.totalIterations += static_cast<std::uint64_t>(
        iterLanes[0] + iterLanes[1] + iterLanes[2] + iterLanes[3]);
    stats.cellsProgrammed += programmed;
    stats.cellsWornOut += wornOut;

    for (; i < a.count; ++i)
        detail::programTransformCell(a, i, stats);
}

#else // !defined(__AVX2__)

bool
available()
{
    return false;
}

BitVector
senseCodewordAvx2(const CellConstSpan &, std::size_t,
                  const DeviceConfig &, Tick, double)
{
    fatal("AVX2 kernels not compiled into this build");
}

unsigned
marginScanCountAvx2(const CellConstSpan &, const DeviceConfig &, Tick)
{
    fatal("AVX2 kernels not compiled into this build");
}

void
manufZScoresAvx2(std::uint64_t, std::uint64_t, std::size_t, double *,
                 double *)
{
    fatal("AVX2 kernels not compiled into this build");
}

void
manufDeriveAvx2(std::uint64_t, std::uint64_t, std::size_t, double,
                double, double, float *, float *)
{
    fatal("AVX2 kernels not compiled into this build");
}

void
warmTransformAvx2(const detail::WarmTransformArgs &)
{
    fatal("AVX2 kernels not compiled into this build");
}

void
programTransformAvx2(const detail::ProgramTransformArgs &,
                     LineProgramStats &)
{
    fatal("AVX2 kernels not compiled into this build");
}

#endif

} // namespace simdk
} // namespace kernels
} // namespace pcmscrub
