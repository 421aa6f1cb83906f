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
#include <type_traits>

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
// replacement (vlogPos) approximates — and every consumer peels
// lanes that sit within a guard margin of a decision boundary back
// to the scalar reference path.

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

/**
 * Lane-wise k-th detail::splitmix64 output from seed c: the state
 * after k steps is c + k * gamma, so the steps are independent and a
 * caller computes only the words it needs.
 */
inline __m256i
vsplitmix(__m256i c, std::uint64_t k)
{
    __m256i z = _mm256_add_epi64(
        c, _mm256_set1_epi64x(
               static_cast<long long>(k * 0x9e3779b97f4a7c15ULL)));
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

/** xoshiro256** output scrambler rotl(s1 * 5, 7) * 9, lane-wise. */
inline __m256i
vstarstar(__m256i s1)
{
    // s1 * 5 = s1 + (s1 << 2); rotl 7; * 9 = x + (x << 3).
    const __m256i r7 =
        vrotl(_mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2)), 7);
    return _mm256_add_epi64(r7, _mm256_slli_epi64(r7, 3));
}

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
 * decision boundary with far wider margins (warm-up: 1e-8 in ln and
 * 1e-6 quantizer steps; rewrite: detail::kProgramLnMargin). Zero
 * maps to -1023 ln 2 and infinity to 1024 ln 2.
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

/** One vector ziggurat draw: z values plus the fast-path accepts. */
struct Zig4
{
    __m256d z;
    unsigned accept;
};

/**
 * Lane-wise Random::normalZig() fast path on four raw draws: same
 * exact u conversion (the scalar cast is exact below 2^53), same
 * table loads and single multiply, so accepted lanes carry the
 * scalar values bit for bit. Rejecting lanes (and any lane of a
 * cell whose *other* draw rejects) are re-derived wholesale through
 * the scalar Random — per-cell streams are independent, so the redo
 * is exact.
 */
inline Zig4
zigDraw4(__m256i bits, const pcmscrub::detail::ZigTables &t)
{
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
 * The first one or two raw draws of four manufacturing streams,
 * Random::stream(seed, sid_base + ((i + lane) << 8)). Random's
 * constructor expands the combined seed into s0..s3 by four
 * splitmix64 steps; the first next() returns the scrambled s1 and
 * the second the scrambled s1 ^ s2 ^ s0 (next() applies s2 ^= s0,
 * then s1 ^= s2), so s3 is never expanded and s0, s2 only when a
 * second draw is wanted (`second` is zero otherwise). A lane that
 * goes on past the fast path is redone through a full scalar
 * Random::stream.
 */
inline void
manufRaw4(std::uint64_t seed, std::uint64_t sid_base, std::size_t i,
          bool two, __m256i &first, __m256i &second)
{
    second = _mm256_setzero_si256();
    const __m256i sid = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(
            sid_base + (static_cast<std::uint64_t>(i) << 8))),
        _mm256_setr_epi64x(0, 1 << 8, 2 << 8, 3 << 8));
    const __m256i mixed = vsplitmix(
        _mm256_xor_si256(sid,
                         _mm256_set1_epi64x(static_cast<long long>(
                             0xa0761d6478bd642fULL))),
        1);
    const __m256i combined = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(seed)), mixed);
    const __m256i s1 = vsplitmix(combined, 2);
    first = vstarstar(s1);
    if (two) {
        const __m256i s0 = vsplitmix(combined, 1);
        const __m256i s2 = vsplitmix(combined, 3);
        second = vstarstar(
            _mm256_xor_si256(s1, _mm256_xor_si256(s2, s0)));
    }
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
    // Per 64-cell chunk: the raw draws first, then the ziggurat fast
    // path, each in a loop of its own (short loop bodies let the
    // seeding's long multiply chains overlap), then the redo of
    // rejected lanes, kept out of the vector loops so a rarely taken
    // branch cannot stall them.
    const auto redoCell = [&](std::size_t c) {
        Random manuf = Random::stream(
            seed, sid_base + (static_cast<std::uint64_t>(c) << 8));
        z_e[c] = manuf.normalZig();
        if (z_s != nullptr)
            z_s[c] = manuf.normalZig();
    };
    const std::size_t n4 = count & ~static_cast<std::size_t>(3);
    std::size_t i = 0;
    while (i < n4) {
        const std::size_t end = n4 - i < 64 ? n4 : i + 64;
        alignas(32) std::uint64_t first[64], second[64];
        for (std::size_t j = i; j < end; j += 4) {
            __m256i r1, r2;
            manufRaw4(seed, sid_base, j, z_s != nullptr, r1, r2);
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(first + (j - i)), r1);
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(second + (j - i)), r2);
        }
        std::uint64_t redo = 0;
        for (std::size_t j = i; j < end; j += 4) {
            const Zig4 zE = zigDraw4(
                _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(first + (j - i))),
                t);
            unsigned ok = zE.accept;
            _mm256_storeu_pd(z_e + j, zE.z);
            if (z_s != nullptr) {
                const Zig4 zS = zigDraw4(
                    _mm256_load_si256(reinterpret_cast<const __m256i *>(
                        second + (j - i))),
                    t);
                ok &= zS.accept;
                _mm256_storeu_pd(z_s + j, zS.z);
            }
            redo |= static_cast<std::uint64_t>(~ok & 0xfu)
                << (j - i);
        }
        for (; redo != 0; redo &= redo - 1)
            redoCell(i + static_cast<std::size_t>(__builtin_ctzll(redo)));
        i = end;
    }
    for (; i < count; ++i)
        redoCell(i);
}

namespace {

/**
 * dst[0..count) = vlogPos of src's values as doubles, four at a step
 * (the tail through a padded copy); `positive` blends values <= 0 to
 * 1 first, so they read ln 1 = 0.
 */
template <class T, bool positive>
void
lnValues(const T *src, std::size_t count, double *dst)
{
    const auto ln4 = [](const T *x) {
        __m256d v;
        if constexpr (std::is_same_v<T, float>)
            v = _mm256_cvtps_pd(_mm_loadu_ps(x));
        else
            v = _mm256_loadu_pd(x);
        if constexpr (positive) {
            v = _mm256_blendv_pd(
                _mm256_set1_pd(1.0), v,
                _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ));
        }
        return vlogPos(v);
    };
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(dst + i, ln4(src + i));
    if (i < count) {
        T tail[4] = {T(1), T(1), T(1), T(1)};
        std::memcpy(tail, src + i, (count - i) * sizeof(T));
        double out[4];
        _mm256_storeu_pd(out, ln4(tail));
        std::memcpy(dst + i, out, (count - i) * sizeof(double));
    }
}

} // namespace

void
lnFloatsAvx2(const float *src, std::size_t count, double *dst)
{
    lnValues<float, false>(src, count, dst);
}

void
lnPositiveAvx2(const double *src, std::size_t count, double *dst)
{
    lnValues<double, true>(src, count, dst);
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

        // Four (z1, z2) pairs, de-interleaved: unpack gives lanes
        // in 0, 2, 1, 3 order, the permute restores 0..3.
        const __m256d p01 = _mm256_loadu_pd(a.zLine + 2 * i);
        const __m256d p23 = _mm256_loadu_pd(a.zLine + 2 * i + 4);
        const __m256d z1 = _mm256_permute4x64_pd(
            _mm256_unpacklo_pd(p01, p23), 0xd8);
        const __m256d z2 = _mm256_permute4x64_pd(
            _mm256_unpackhi_pd(p01, p23), 0xd8);
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
    const __m256d medE = _mm256_set1_pd(a.logMedianE);
    const __m256d sigE = _mm256_set1_pd(a.sigmaE);
    const __m256d sigS = _mm256_set1_pd(a.sigmaS);
    const __m256d lnMin = _mm256_set1_pd(a.lnNuMin);
    const __m256d lnMax = _mm256_set1_pd(a.lnNuMax);
    const __m256d invStep = _mm256_set1_pd(a.invNuLogStep);
    const __m256d margin = _mm256_set1_pd(detail::kProgramLnMargin);
    // The quantizer sees the ln margin scaled by its step, plus
    // slack for the scalar's own division/log/multiply roundings.
    const __m256d tieCut = _mm256_set1_pd(
        0.5 - (detail::kProgramLnMargin * a.invNuLogStep + 1e-9));
    // ln of the smallest normal float: a drift-speed float outside
    // +-this (subnormal, zero, infinite), or a nu float below it,
    // rounds with more than the margin's relative error. The floor
    // also catches every subnormal dNu, which vlogPos reads as about
    // -708.
    const double lnFltMin =
        std::log(static_cast<double>(std::numeric_limits<float>::min()));
    const __m256d lnFloor = _mm256_set1_pd(lnFltMin);
    const __m256d lnSCap = _mm256_set1_pd(-lnFltMin);
    const __m256 meanTable =
        _mm256_castpd_ps(_mm256_loadu_pd(a.meanLogR));
    // A uniform line shares one post-write count, so one libm log
    // covers every lane.
    const __m256d lnWUniform = _mm256_set1_pd(
        std::log(static_cast<double>(a.uniformWrites + 1u)));

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
        const __m256d aliveM = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
            _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
                static_cast<int>(aliveWord))),
            _mm256_setzero_si256()));
        const unsigned am =
            static_cast<unsigned>(_mm256_movemask_pd(aliveM));
        std::uint32_t levelWord;
        std::memcpy(&levelWord, a.level + i, 4);
        const __m256i lv = _mm256_cvtepu8_epi64(
            _mm_cvtsi32_si128(static_cast<int>(levelWord)));

        // logR0: the float round-trip then encodeLogR0's
        // delta/step quantizer — every op the scalar's own, so no
        // peel is needed here (a peeled lane stores the same byte).
        // meanLogR[level] is a register permute: 32-bit halves 2l
        // and 2l + 1 of the four-double table.
        const __m256d fd = _mm256_cvtps_pd(
            _mm256_cvtpd_ps(_mm256_loadu_pd(a.dLogR + i)));
        const __m256i half = _mm256_slli_epi64(lv, 1);
        const __m256d mean = _mm256_castps_pd(_mm256_permutevar8x32_ps(
            meanTable,
            _mm256_or_si256(
                half, _mm256_slli_epi64(
                          _mm256_add_epi64(half, _mm256_set1_epi64x(1)),
                          32))));
        __m256d code = vroundHalfAway(
            _mm256_div_pd(_mm256_sub_pd(fd, mean), step));
        code = _mm256_min_pd(
            _mm256_max_pd(_mm256_add_pd(code, bias), zero), v255);
        storeBytes4(a.logRq + i, code, am);

        // Wear-out: float(exp(lnE)) <= writes + 1 decided as
        // lnE <= ln(writes + 1); lanes within the margin, or whose
        // u32 count wrapped to zero, peel.
        __m128i w32 = a.ovWrites != nullptr
            ? _mm_loadu_si128(
                  reinterpret_cast<const __m128i *>(a.ovWrites + i))
            : _mm_set1_epi32(static_cast<int>(a.uniformWrites));
        w32 = _mm_add_epi32(w32, _mm_set1_epi32(1));
        const __m256d wd = u64ToDouble53(_mm256_cvtepu32_epi64(w32));
        const __m256d lnW =
            a.ovWrites != nullptr ? vlogPos(wd) : lnWUniform;
        const __m256d lnE = _mm256_add_pd(
            medE, _mm256_mul_pd(sigE, _mm256_loadu_pd(a.zE + i)));
        const __m256d wornM = _mm256_cmp_pd(lnE, lnW, _CMP_LE_OQ);
        __m256d peelM = _mm256_or_pd(
            _mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(lnE, lnW), absMask),
                margin, _CMP_NGE_UQ),
            _mm256_cmp_pd(wd, zero, _CMP_EQ_OQ));

        // nu = float(float(exp(lnS)) * max(0, dNu)) is encoded from
        // ln nu ~ lnS + ln(dNu). dNu <= 0 gives code 0 in lanes, as
        // the scalar's max(0, .) does; lanes near the envelope, out
        // of the normal float range, or near a quantizer half-step
        // peel. Worn lanes store the sentinel whatever nu is.
        const __m256d lnS = a.zS == nullptr
            ? zero
            : _mm256_mul_pd(sigS, _mm256_loadu_pd(a.zS + i));
        const __m256d dNu = _mm256_loadu_pd(a.dNu + i);
        const __m256d posM = _mm256_cmp_pd(dNu, zero, _CMP_GT_OQ);
        const __m256d lnV =
            _mm256_add_pd(lnS, _mm256_loadu_pd(a.lnDNu + i));
        __m256d nuPeelM = _mm256_cmp_pd(
            _mm256_and_pd(_mm256_sub_pd(lnV, lnMax), absMask), margin,
            _CMP_NGE_UQ);
        nuPeelM = _mm256_or_pd(
            nuPeelM,
            _mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(lnV, lnMin), absMask),
                margin, _CMP_NGE_UQ));
        nuPeelM = _mm256_or_pd(
            nuPeelM, _mm256_cmp_pd(lnV, lnFloor, _CMP_NGE_UQ));
        nuPeelM = _mm256_or_pd(
            nuPeelM, _mm256_cmp_pd(_mm256_and_pd(lnS, absMask),
                                   lnSCap, _CMP_NLT_UQ));
        const __m256d geM = _mm256_cmp_pd(lnV, lnMax, _CMP_GE_OQ);
        const __m256d leM = _mm256_cmp_pd(lnV, lnMin, _CMP_LE_OQ);
        const __m256d tq =
            _mm256_mul_pd(_mm256_sub_pd(lnV, lnMin), invStep);
        const __m256d rq = vroundHalfAway(tq);
        const __m256d interiorM =
            _mm256_andnot_pd(geM, _mm256_andnot_pd(leM, posM));
        nuPeelM = _mm256_or_pd(
            nuPeelM,
            _mm256_and_pd(
                interiorM,
                _mm256_cmp_pd(
                    _mm256_and_pd(_mm256_sub_pd(tq, rq), absMask),
                    tieCut, _CMP_GT_OQ)));
        peelM = _mm256_or_pd(
            peelM,
            _mm256_andnot_pd(wornM, _mm256_and_pd(posM, nuPeelM)));
        const __m256d keepM = _mm256_andnot_pd(peelM, aliveM);
        const unsigned keep =
            static_cast<unsigned>(_mm256_movemask_pd(keepM));

        __m256d nuVal = _mm256_min_pd(
            _mm256_max_pd(_mm256_add_pd(rq, one), one), v254);
        nuVal = _mm256_blendv_pd(nuVal, one, leM);
        nuVal = _mm256_blendv_pd(nuVal, v254, geM);
        nuVal = _mm256_and_pd(nuVal, posM); // dNu <= 0 -> code 0
        nuVal = _mm256_blendv_pd(nuVal, v255, wornM);
        storeBytes4(a.nuIdx + i, nuVal, keep);

        // Iterations: exact round/clamp, 1 for extreme levels.
        static_assert(mlcLevels == 4, "intermediate levels are 1, 2");
        const __m256d interM = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_cmpeq_epi64(lv, _mm256_set1_epi64x(1)),
            _mm256_cmpeq_epi64(lv, _mm256_set1_epi64x(2))));
        __m256d iter =
            vroundHalfAway(_mm256_loadu_pd(a.dIter + i));
        iter = _mm256_min_pd(_mm256_max_pd(iter, one), maxIter);
        iter = _mm256_blendv_pd(one, iter, interM);
        iterSum = _mm256_add_epi64(
            iterSum,
            _mm256_and_si256(
                _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(iter)),
                _mm256_castpd_si256(keepM)));
        programmed += static_cast<unsigned>(__builtin_popcount(keep));
        wornOut += static_cast<unsigned>(__builtin_popcount(
            static_cast<unsigned>(_mm256_movemask_pd(wornM)) & keep));

        if (a.ovWrites != nullptr) {
            const __m128i keep32 =
                _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                    _mm256_castpd_si256(keepM),
                    _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
            _mm_maskstore_epi32(
                reinterpret_cast<int *>(a.ovWrites + i), keep32, w32);
            _mm256_maskstore_epi64(
                reinterpret_cast<long long *>(a.ovTicks + i),
                _mm256_castpd_si256(keepM),
                _mm256_set1_epi64x(static_cast<long long>(a.now)));
        }

        // Peeled lanes: the whole cell through the scalar transform
        // (it reads the overlay count the vector path left alone).
        unsigned pending = am & ~keep;
        while (pending != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(pending));
            pending &= pending - 1;
            detail::programTransformCell(a, i + lane, stats);
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
lnFloatsAvx2(const float *, std::size_t, double *)
{
    fatal("AVX2 kernels not compiled into this build");
}

void
lnPositiveAvx2(const double *, std::size_t, double *)
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
