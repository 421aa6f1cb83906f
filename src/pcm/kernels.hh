/**
 * @file
 * Batched per-line kernels over SoA cell planes: sensing, margin
 * scan, and programming of a whole line in one pass.
 *
 * The contract is exactness, not approximation: each kernel performs
 * the same floating-point operations in the same order as the
 * per-cell CellModel calls it replaces, so results are bit-identical
 * (sense_kernel_test proves it against the model directly). The
 * speed comes from what the kernels *avoid*: the dominant saving is
 * one log10 per distinct program tick per line instead of one per
 * cell — after a full write every cell shares the line's drift
 * clock, so a 256-cell sense performs a single log10. A scalar
 * fallback handles cells on older clocks (differential writes skip
 * cells, leaving them on earlier ticks).
 */

#ifndef PCMSCRUB_PCM_KERNELS_HH
#define PCMSCRUB_PCM_KERNELS_HH

#include <cstdint>

#include "common/bitvector.hh"
#include "common/types.hh"
#include "pcm/cell_storage.hh"
#include "pcm/line.hh"

namespace pcmscrub {

class Random;

namespace kernels {

/**
 * Sense every cell and pack the (possibly corrupted) codeword —
 * the batched form of CellModel::read() over a line.
 *
 * @param slc_mode one bit per cell (extreme levels) instead of the
 *        Gray-coded two
 * @param threshold_shift widened-margin retry sensing
 */
BitVector senseCodeword(const CellConstSpan &cells,
                        std::size_t codeword_bits, bool slc_mode,
                        const DeviceConfig &config, Tick now,
                        double threshold_shift);

/**
 * Number of cells the light margin read would flag (MLC only; SLC
 * margins never flag). Batched CellModel::marginFlagged().
 */
unsigned marginScanCount(const CellConstSpan &cells,
                         const DeviceConfig &config, Tick now);

/**
 * Program the line to hold `codeword` — the batched form of the
 * writeCodeword loop, bit-identical to CellModel::program per cell
 * followed by storePhysics, draw for draw. A full MLC write of an
 * array-home line on a SIMD-capable host takes the two-stage
 * pipeline: one batched fill of the line stream's normals in the
 * scalar order, manufacturing z-scores shared with warm-up (no exp),
 * and a vector transform deciding nu codes and wear-out in the log
 * domain, with lanes near a decision boundary peeled to the scalar
 * helper (margins in kernels_simd.hh). Every other shape runs the
 * per-cell model loop, whose differential writes read the current
 * level with the hoisted-log10 sense.
 */
LineProgramStats programCodeword(const CellSpan &cells,
                                 const BitVector &codeword,
                                 std::size_t codeword_bits,
                                 bool slc_mode, Tick now,
                                 const CellModel &model, Random &rng,
                                 bool differential);

/**
 * Construction-time program of a fresh MLC line at tick 0 — the
 * array warm-up's whole job, done directly in the quantized planes.
 *
 * This is NOT a faster programCodeword: it defines its own draw
 * discipline (ziggurat normals from the caller's per-line stream:
 * one logR0 z-score then one drift z-score per cell; manufacturing
 * z-scores from the cell's own manufStream) and encodes the codes
 * straight from those z-scores in the log domain, so per cell it
 * costs roughly one libm log instead of the reference path's ~ten
 * transcendentals. What it must stay exact about:
 *
 *  - the gray plane equals the codeword bits (lines are byte-aligned
 *    in the plane, so the codeword bytes ARE the plane bytes);
 *  - first-write wear-out matches what CellModel::program would
 *    decide against this cell's derived endurance: the write
 *    succeeds, then the cell freezes at its target level
 *    (nuIdx = stuck sentinel);
 *  - the manufacturing stream is consumed draw-for-draw like
 *    sampleManufacturing, so later compact-mode derives reproduce
 *    the exact endurance/drift-speed floats this kernel screened;
 *  - cells stay on the line's uniform write clock — no overlay is
 *    ever materialized.
 *
 * The caller still owns intended-word and line-meta updates
 * (Line::warmWriteCodeword wraps all three).
 */
void warmProgramCodeword(const CellSpan &cells,
                         const BitVector &codeword,
                         std::size_t codeword_bits,
                         const DeviceConfig &config, Random &rng);

} // namespace kernels
} // namespace pcmscrub

#endif // PCMSCRUB_PCM_KERNELS_HH
