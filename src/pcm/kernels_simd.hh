/**
 * @file
 * Internal interface of the AVX2 sense/margin kernels
 * (kernels_avx2.cc). Not installed API: only kernels.cc dispatches
 * through it, and only when simd::enabled() and the shape fits the
 * vector path (MLC line, uniform write clock). Results are
 * bit-identical to the scalar loops in kernels.cc —
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
 * lanes at a time (vector splitmix64 seeding + xoshiro256** +
 * ziggurat fast path) and stores the endurance z-score in z_e[i]
 * and, when z_s is non-null, the drift-speed z-score in z_s[i].
 * Lanes that fall off the ziggurat fast path re-derive the whole
 * cell through the scalar Random — streams are independent, so the
 * values are the scalar path's exactly.
 */
void manufZScoresAvx2(std::uint64_t seed, std::uint64_t sid_base,
                      std::size_t count, double *z_e, double *z_s);

/**
 * Batched CellStorage::deriveManufacturing: manufZScoresAvx2's
 * z-scores pushed through QuantSpec::sampleManufacturing's
 * float(exp(...)) chain with a vector exp whose lanes are accepted
 * only when the float rounding provably matches libm's (half-ulp
 * margin test); unsure lanes re-derive scalar. sigma_s == 0 stores
 * 1.0f drift speeds without drawing, like the scalar path.
 */
void manufDeriveAvx2(std::uint64_t seed, std::uint64_t sid_base,
                     std::size_t count, double log_median_e,
                     double sigma_e, double sigma_s,
                     float *endurance, float *nu_speed);

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
 * program stats. The logR0 quantizer and the nu envelope compares
 * are exact in lanes (same double ops as scalar); only the interior
 * log-domain nu quantization peels, on ties within 1e-6 of half.
 */
void programTransformAvx2(const detail::ProgramTransformArgs &args,
                          LineProgramStats &stats);

} // namespace simdk
} // namespace kernels
} // namespace pcmscrub

#endif // PCMSCRUB_PCM_KERNELS_SIMD_HH
