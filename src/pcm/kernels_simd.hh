/**
 * @file
 * Internal interface of the AVX2 kernels (kernels_avx2.cc). Not
 * installed API: only kernels.cc dispatches through it, and only
 * when simd::enabled() and the shape fits the vector path (MLC
 * line; the sense and margin kernels also need a uniform write
 * clock). Results are bit-identical to the scalar loops in
 * kernels.cc and kernels_impl.hh —
 * simd_oracle_test compares the two paths on random planes.
 */

#ifndef PCMSCRUB_PCM_KERNELS_SIMD_HH
#define PCMSCRUB_PCM_KERNELS_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "common/bitvector.hh"
#include "common/types.hh"
#include "pcm/cell_storage.hh"
#include "pcm/device_config.hh"
#include "pcm/kernels.hh"
#include "pcm/kernels_impl.hh"

namespace pcmscrub {
namespace kernels {
namespace simdk {

/**
 * Whether the AVX2 path can run on this build + CPU. Constant after
 * the first call.
 */
bool available();

/**
 * Vector senseCodeword for an MLC line on a uniform write clock
 * (cells.ovTicks == nullptr). Caller guarantees available(),
 * !slc_mode, and cells.count >= 8; the sub-vector tail is handled
 * internally by the shared scalar reference helper.
 */
BitVector senseCodewordAvx2(const CellConstSpan &cells,
                            std::size_t codeword_bits,
                            const DeviceConfig &config, Tick now,
                            double threshold_shift);

/** Vector marginScanCount under the same preconditions. */
unsigned marginScanCountAvx2(const CellConstSpan &cells,
                             const DeviceConfig &config, Tick now);

/**
 * Batched manufacturing z-scores: for cells 0..count-1 runs the
 * per-cell stream Random::stream(seed, sid_base + (i << 8)) four
 * lanes at a time (vector splitmix64 seeding of only the state
 * words the first one or two draws read + xoshiro256** scrambler +
 * ziggurat fast path) and stores the endurance z-score in z_e[i]
 * and, when z_s is non-null, the drift-speed z-score in z_s[i].
 * Lanes that fall off the ziggurat fast path re-derive the whole
 * cell through the scalar Random — streams are independent, so the
 * values are the scalar path's exactly. Shared by warm-up and the
 * batched rewrite: both work on z-scores, neither calls exp.
 */
void manufZScoresAvx2(std::uint64_t seed, std::uint64_t sid_base,
                      std::size_t count, double *z_e, double *z_s);

/**
 * dst[i] = vlogPos(src[i]) for count floats (aux-mode manufacturing
 * planes into the rewrite transform's log domain). Zero and
 * infinity map to -709.1 and +709.8, past every boundary the
 * transform compares against, so they decide like the floats they
 * stand for or peel.
 */
void lnFloatsAvx2(const float *src, std::size_t count, double *dst);

/**
 * dst[i] = vlogPos(src[i]) for positive src[i], 0 otherwise: the
 * rewrite's ln(dNu), computed in a loop of its own before the
 * transform because each vlogPos is one long dependency chain that
 * only a short loop body overlaps well.
 */
void lnPositiveAvx2(const double *src, std::size_t count, double *dst);

/**
 * Vector stage B of warm-up: detail::warmTransformCell over the
 * scratch buffers, four cells per step. Lanes near a decision
 * boundary the vector log cannot certify (wear-out screen hits,
 * subnormal drift terms, ln-domain compares within 1e-8, quantizer
 * ties within 1e-6 of half) fall back to the scalar helper.
 */
void warmTransformAvx2(const detail::WarmTransformArgs &args);

/**
 * Vector stage B of a batched rewrite: detail::programTransformCell
 * over the scratch buffers, four cells per step, accumulating the
 * program stats. The logR0 quantizer is exact in lanes (same double
 * ops as scalar). The nu code and wear-out are decided in the log
 * domain, like warm-up: lnS + ln(dNu) (read from args.lnDNu)
 * against the nu envelope and quantizer, lnE against
 * ln(writes + 1), with
 * detail::kProgramLnMargin (1.2e-7) covering the scalar's two float
 * roundings. Lanes inside that margin (or, for the quantizer, within
 * margin * invNuLogStep + 1e-9 of a half step), with a float out
 * of normal range (which includes every subnormal dNu), or whose
 * u32 write count wrapped peel whole to the scalar transform;
 * dNu <= 0 encodes as code 0 in lanes.
 */
void programTransformAvx2(const detail::ProgramTransformArgs &args,
                          LineProgramStats &stats);

} // namespace simdk
} // namespace kernels
} // namespace pcmscrub

#endif // PCMSCRUB_PCM_KERNELS_SIMD_HH
