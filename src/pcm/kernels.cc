#include "pcm/kernels.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "pcm/kernels_impl.hh"
#include "pcm/kernels_simd.hh"

namespace pcmscrub {
namespace kernels {

using detail::DriftAgeCache;
using detail::senseLevel;

namespace {

/**
 * Whether the vector kernels may handle this span: MLC layout on a
 * uniform write clock (a materialized overlay means per-cell drift
 * clocks, which the scalar path resolves cell by cell), at least one
 * full vector of cells, and vectorization not disabled.
 */
inline bool
vectorPath(const CellConstSpan &cells, bool slc_mode)
{
    return !slc_mode && cells.ovTicks == nullptr && cells.count >= 8 &&
        simd::enabled() && simdk::available();
}

/**
 * Draw/transform scratch of the two-stage program pipelines.
 * Thread-local: parallel backends program disjoint lines from
 * worker threads, each of which keeps its own buffers warm.
 */
detail::ProgramScratch &
programScratch()
{
    static thread_local detail::ProgramScratch scratch;
    return scratch;
}

/**
 * Batched rewrite of a full array-home MLC line: stage A decodes
 * target levels, draws the line stream's normals in the scalar
 * loop's exact order with one batched fill and scatters them into
 * scratch, and takes the manufacturing state as z-scores (the
 * warm-up's derivation, no exp); stage B (programTransformAvx2)
 * turns the draws into plane bytes four cells at a step, deciding
 * the nu code and wear-out in the log domain. Emits the bits,
 * stats, and overlay words of the scalar loop exactly; the caller
 * has already materialized the overlay if the line needs one and
 * verified the vector gate.
 */
LineProgramStats
programCodewordBatched(const CellSpan &cells, const BitVector &codeword,
                       Tick now, const CellModel &model, Random &rng,
                       WriteOverlay *overlay)
{
    const DeviceConfig &config = model.config();
    CellStorage &storage = *cells.storage;
    const QuantSpec &spec = storage.spec();
    const std::size_t count = cells.count;
    detail::ProgramScratch &scr = programScratch();
    scr.level.resize(count);
    scr.alive.resize(count);
    scr.dIter.resize(count);
    scr.dLogR.resize(count);
    scr.dNu.resize(count);

    // Stage A: decode target levels (2-bit Gray symbols pack 32 to
    // the codeword word; the BitVector keeps tail bits clear, so an
    // odd-width codeword's half-cell lands as bit1 = 0 exactly like
    // the bit-by-bit guard) and count the line-stream draws: per
    // live cell the iteration draw (intermediate levels only), then
    // logR0, then nu. Stuck cells draw nothing.
    const std::uint64_t *words = codeword.words().data();
    const CellConstSpan view = cells.view();
    std::size_t draws = 0;
    unsigned stuckCells = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned g = static_cast<unsigned>(
            (words[i >> 5] >> ((i & 31u) * 2u)) & 3u);
        const unsigned level =
            grayToLevel(static_cast<std::uint8_t>(g));
        const unsigned live = !view.stuck(i);
        scr.level[i] = static_cast<std::uint8_t>(level);
        scr.alive[i] = static_cast<std::uint8_t>(live);
        stuckCells += 1u - live;
        draws += live * (2u + (level - 1u < mlcLevels - 2u));
    }

    // One fill in stream order, then a branch-free scatter: each
    // live cell advances the cursor by its own draw count. Stores
    // that a cell does not use (dIter of an extreme level, every
    // field of a stuck cell) hold a neighbour's normal and are never
    // read; the three-slot pad keeps a trailing stuck cell's reads
    // inside the buffer.
    scr.draws.resize(draws + 3);
    rng.fillNormalZig(scr.draws.data(), draws);
    double driftMu[mlcLevels], driftSig[mlcLevels];
    for (unsigned l = 0; l < mlcLevels; ++l) {
        driftMu[l] = config.driftMu[l];
        driftSig[l] = config.driftSigma(l);
    }
    const double *d = scr.draws.data();
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned level = scr.level[i];
        const unsigned inter = level - 1u < mlcLevels - 2u;
        scr.dIter[i] = config.meanIterationsIntermediate +
            config.sigmaIterations * d[0];
        scr.dLogR[i] = config.levelMeanLogR[level] +
            config.sigmaLogR * d[inter];
        scr.dNu[i] = driftMu[level] + driftSig[level] * d[inter + 1];
        d += scr.alive[i] * (2u + inter);
    }

    // Gray plane: cell c's symbol is codeword bits 2c..2c+1, four
    // cells to the byte — the plane's own layout — so live symbols
    // deposit wholesale. Stuck cells keep their frozen symbol (the
    // scalar path never stores them); bits past the last cell are
    // clear in the codeword and already clear in the plane (warm-up
    // deposited the same clear tail), so wholesale stays identical.
    std::uint8_t *gray = storage.grayData(cells.line);
    const std::size_t planeBytes = (count + 3) / 4;
    if (stuckCells != 0) {
        for (std::size_t k = 0; k < planeBytes; ++k) {
            const std::size_t base = k * 4;
            const std::size_t n =
                count - base < 4 ? count - base : 4;
            std::uint8_t keep = 0;
            for (std::size_t c = 0; c < n; ++c) {
                if (!scr.alive[base + c])
                    keep |= static_cast<std::uint8_t>(3u << (c * 2));
            }
            const std::uint8_t tgt = static_cast<std::uint8_t>(
                words[k >> 3] >> ((k & 7u) * 8u));
            gray[k] = static_cast<std::uint8_t>(
                (gray[k] & keep) | (tgt & ~keep));
        }
    } else {
        for (std::size_t k = 0; k < planeBytes; ++k) {
            gray[k] = static_cast<std::uint8_t>(
                words[k >> 3] >> ((k & 7u) * 8u));
        }
    }

    // Manufacturing state in the log domain: compact storage takes
    // the per-cell streams' z-scores (order-neutral, the warm-up's
    // batched derivation); aux storage takes the ln of its stored
    // floats through the same transform with an identity map.
    detail::ProgramTransformArgs args;
    scr.zE.resize(count);
    if (storage.auxMode()) {
        scr.zS.resize(count);
        args.auxEndurance = storage.rawEnduranceData(cells.line);
        args.auxNuSpeed = storage.rawNuSpeedData(cells.line);
        simdk::lnFloatsAvx2(args.auxEndurance, count, scr.zE.data());
        simdk::lnFloatsAvx2(args.auxNuSpeed, count, scr.zS.data());
        args.zS = scr.zS.data();
        args.logMedianE = 0.0;
        args.sigmaE = 1.0;
        args.sigmaS = 1.0;
    } else {
        args.auxEndurance = nullptr;
        args.auxNuSpeed = nullptr;
        args.sigmaS = spec.driftSpeedSigmaLn();
        double *zS = nullptr;
        if (args.sigmaS != 0.0) {
            scr.zS.resize(count);
            zS = scr.zS.data();
        }
        simdk::manufZScoresAvx2(
            storage.manufSeed(),
            storage.manufStreamId(cells.baseCell, cells.line), count,
            scr.zE.data(), zS);
        args.zS = zS;
        args.logMedianE = spec.enduranceLogMedian();
        args.sigmaE = spec.enduranceSigmaLn();
    }
    args.zE = scr.zE.data();

    args.logRq = storage.rawLogRqData(cells.line);
    args.nuIdx = storage.rawNuIdxData(cells.line);
    args.level = scr.level.data();
    args.alive = scr.alive.data();
    args.dIter = scr.dIter.data();
    args.dLogR = scr.dLogR.data();
    args.dNu = scr.dNu.data();
    scr.lnDNu.resize(count);
    simdk::lnPositiveAvx2(scr.dNu.data(), count, scr.lnDNu.data());
    args.lnDNu = scr.lnDNu.data();
    args.ovWrites =
        overlay != nullptr ? overlay->writes.data() : nullptr;
    args.ovTicks =
        overlay != nullptr ? overlay->ticks.data() : nullptr;
    args.count = count;
    args.now = now;
    args.uniformWrites =
        static_cast<std::uint32_t>(storage.lineWrites(cells.line));
    args.maxIterations =
        static_cast<double>(config.maxProgramIterations);
    for (unsigned l = 0; l < mlcLevels; ++l)
        args.meanLogR[l] = config.levelMeanLogR[l];
    args.logR0Step = spec.logR0Step();
    args.nuMin = spec.nuMin();
    args.nuMax = spec.nuMax();
    args.lnNuMin = std::log(spec.nuMin());
    args.lnNuMax = std::log(spec.nuMax());
    args.invNuLogStep = spec.invNuLogStep();

    LineProgramStats stats;
    simdk::programTransformAvx2(args, stats);
    return stats;
}

} // namespace

BitVector
senseCodeword(const CellConstSpan &cells, std::size_t codeword_bits,
              bool slc_mode, const DeviceConfig &config, Tick now,
              double threshold_shift)
{
    if (vectorPath(cells, slc_mode)) {
        return simdk::senseCodewordAvx2(cells, codeword_bits, config,
                                        now, threshold_shift);
    }
    BitVector word(codeword_bits);
    DriftAgeCache age(now, config.driftT0Seconds);
    std::uint64_t chunk = 0;
    unsigned filled = 0;
    std::size_t base = 0;
    if (slc_mode) {
        // Single wide threshold at the middle of the level range.
        for (std::size_t i = 0; i < codeword_bits; ++i) {
            const std::uint64_t bit =
                senseLevel(cells, i, config, age, threshold_shift) >=
                mlcLevels / 2;
            chunk |= bit << filled;
            if (++filled == 64) {
                word.deposit(base, 64, chunk);
                base += 64;
                chunk = 0;
                filled = 0;
            }
        }
    } else {
        for (std::size_t i = 0; i < cells.count; ++i) {
            const std::uint64_t gray = levelToGray(
                senseLevel(cells, i, config, age, threshold_shift));
            chunk |= gray << filled;
            filled += bitsPerCell;
            if (filled == 64) {
                // The flush clamps for odd-width codewords whose
                // last cell pushes the final chunk past the end.
                const std::size_t n = codeword_bits - base < 64
                    ? codeword_bits - base : 64;
                word.deposit(base, n, chunk);
                base += 64;
                chunk = 0;
                filled = 0;
            }
        }
    }
    // Tail chunk; the last cell of an odd-width codeword contributes
    // one bit more than the word holds, which deposit() masks off.
    if (base < codeword_bits)
        word.deposit(base, codeword_bits - base, chunk);
    return word;
}

unsigned
marginScanCount(const CellConstSpan &cells, const DeviceConfig &config,
                Tick now)
{
    if (vectorPath(cells, /*slc_mode=*/false))
        return simdk::marginScanCountAvx2(cells, config, now);
    DriftAgeCache age(now, config.driftT0Seconds);
    unsigned flagged = 0;
    for (std::size_t i = 0; i < cells.count; ++i)
        flagged += detail::marginFlagged(cells, i, config, age);
    return flagged;
}

LineProgramStats
programCodeword(const CellSpan &cells, const BitVector &codeword,
                std::size_t codeword_bits, bool slc_mode, Tick now,
                const CellModel &model, Random &rng, bool differential)
{
    const DeviceConfig &config = model.config();
    CellStorage &storage = *cells.storage;
    DriftAgeCache age(now, config.driftT0Seconds);

    // A clean full write leaves every live cell on the line's new
    // uniform write clock, so per-cell writes/ticks stay virtual.
    // Anything that lets a cell diverge — skipped cells of a
    // differential write, a stuck cell's frozen clock, or pre-existing
    // skew — needs the overlay materialized *before* the loop, so it
    // captures the current uniform values for untouched cells.
    WriteOverlay *overlay = nullptr;
    if (storage.hasOverlay(cells.line) || differential ||
        storage.lineHasStuck(cells.line, cells.count)) {
        overlay = &storage.ensureOverlay(cells.line);
    }

    // Batched pipeline for the common shape: a full array-home MLC
    // line, no data-comparison reads. Unlike the sense-path gate it
    // admits overlays (stage B stores per-cell clocks through the
    // overlay pointers); differential writes stay scalar because
    // their skip-sense decides per cell whether the stream is drawn
    // at all.
    if (!slc_mode && !differential && cells.count >= 8 &&
        simd::enabled() && simdk::available() &&
        cells.baseCell == cells.line * storage.cellsPerLine() &&
        cells.count == storage.cellsPerLine() &&
        codeword.size() == codeword_bits &&
        cells.count ==
            (codeword_bits + bitsPerCell - 1) / bitsPerCell) {
        return programCodewordBatched(cells, codeword, now, model,
                                      rng, overlay);
    }
    const CellConstSpan view = cells.view();

    LineProgramStats stats;
    for (std::size_t i = 0; i < cells.count; ++i) {
        unsigned level;
        if (slc_mode) {
            // One bit per cell, extreme levels only: full RESET for
            // 0, full SET for 1.
            level = codeword.get(i) ? mlcLevels - 1 : 0;
        } else {
            const std::size_t bit = i * bitsPerCell;
            std::uint8_t gray = codeword.get(bit) ? 1 : 0;
            if (bit + 1 < codeword_bits && codeword.get(bit + 1))
                gray |= 2;
            level = grayToLevel(gray);
        }
        if (view.stuck(i)) {
            // Dead cells ignore programming (and the differential
            // read) — CellModel::program draws nothing for them.
            continue;
        }
        if (differential &&
            senseLevel(view, i, config, age, 0.0) == level) {
            continue; // Data-comparison write skips matching cells.
        }
        Cell cell = storage.loadCell(cells.baseCell + i);
        const ProgramOutcome outcome =
            model.program(cell, level, now, rng);
        storage.storePhysics(cells.baseCell + i, cell);
        if (overlay != nullptr) {
            overlay->writes[i] = cell.writes;
            overlay->ticks[i] = cell.writeTick;
        }
        if (outcome.iterations > 0) {
            ++stats.cellsProgrammed;
            stats.totalIterations += outcome.iterations;
        }
        stats.cellsWornOut += outcome.wornOut;
    }
    return stats;
}

void
warmProgramCodeword(const CellSpan &cells, const BitVector &codeword,
                    std::size_t codeword_bits,
                    const DeviceConfig &config, Random &rng)
{
    CellStorage &storage = *cells.storage;
    const QuantSpec &spec = storage.spec();
    PCMSCRUB_ASSERT(cells.baseCell ==
                        cells.line * storage.cellsPerLine() &&
                        cells.count == storage.cellsPerLine(),
                    "warm-up kernel needs the full array-home line");
    PCMSCRUB_ASSERT(codeword.size() == codeword_bits &&
                        cells.count ==
                            (codeword_bits + bitsPerCell - 1) /
                                bitsPerCell,
                    "codeword of %zu bits on a %zu-cell line",
                    codeword_bits, cells.count);

    // Gray plane: cell c's Gray code is codeword bits 2c..2c+1, four
    // cells to the byte — exactly the plane's own layout, and a
    // BitVector keeps its tail bits clear, so an odd-width codeword's
    // last half-cell lands as bit1 = 0 just like targetLevel's guard.
    // Deposit the codeword bytes wholesale.
    std::uint8_t *gray = storage.grayData(cells.line);
    const std::uint64_t *words = codeword.words().data();
    const std::size_t planeBytes = (cells.count + 3) / 4;
    for (std::size_t k = 0; k < planeBytes; ++k) {
        gray[k] = static_cast<std::uint8_t>(
            words[k >> 3] >> ((k & 7u) * 8u));
    }

    std::uint8_t *logRq = storage.rawLogRqData(cells.line);
    std::uint8_t *nuIdx = storage.rawNuIdxData(cells.line);

    const double logRScale = config.sigmaLogR / spec.logR0Step();
    const double lnNuMin = std::log(spec.nuMin());
    const double lnNuMax = std::log(spec.nuMax());
    const double invNuLogStep = spec.invNuLogStep();
    const double logMedianE = spec.enduranceLogMedian();
    const double sigmaE = spec.enduranceSigmaLn();
    const double sigmaS = spec.driftSpeedSigmaLn();
    const std::uint64_t manufSeed = storage.manufSeed();
    double driftMu[mlcLevels], driftSig[mlcLevels];
    for (unsigned l = 0; l < mlcLevels; ++l) {
        driftMu[l] = config.driftMu[l];
        driftSig[l] = config.driftSigma(l);
    }
    const std::size_t count = cells.count;
    detail::ProgramScratch &scr = programScratch();
    scr.draws.resize(2 * count);
    scr.zE.resize(count);
    if (sigmaS != 0.0)
        scr.zS.resize(count);
    double *zS = sigmaS == 0.0 ? nullptr : scr.zS.data();

    // Stage A, line stream: always both z-scores per cell — one for
    // logR0, one for this write's drift exponent — in the scalar
    // order (z1 then z2, cell by cell): one batched fill.
    rng.fillNormalZig(scr.draws.data(), 2 * count);

    // Stage A, manufacturing streams: consumed draw-for-draw like
    // sampleManufacturing (endurance first; no drift-speed draw when
    // its sigma is zero). Each cell owns its stream, so batching the
    // draws is order-neutral.
    const std::uint64_t sidBase =
        storage.manufStreamId(cells.baseCell, cells.line);
    const bool vec =
        count >= 8 && simd::enabled() && simdk::available();
    if (vec) {
        simdk::manufZScoresAvx2(manufSeed, sidBase, count,
                                scr.zE.data(), zS);
    } else {
        std::uint64_t sid = sidBase;
        for (std::size_t i = 0; i < count; ++i, sid += 256) {
            Random manuf = Random::stream(manufSeed, sid);
            scr.zE[i] = manuf.normalZig();
            if (zS != nullptr)
                zS[i] = manuf.normalZig();
        }
    }

    // Stage B: pure transform of the draw buffers into plane bytes.
    detail::WarmTransformArgs args;
    args.gray = gray;
    args.logRq = logRq;
    args.nuIdx = nuIdx;
    args.zLine = scr.draws.data();
    args.zE = scr.zE.data();
    args.zS = zS;
    args.count = count;
    args.logRScale = logRScale;
    args.lnNuMin = lnNuMin;
    args.lnNuMax = lnNuMax;
    args.invNuLogStep = invNuLogStep;
    args.logMedianE = logMedianE;
    args.sigmaE = sigmaE;
    args.sigmaS = sigmaS;
    for (unsigned l = 0; l < mlcLevels; ++l) {
        args.driftMu[l] = driftMu[l];
        args.driftSig[l] = driftSig[l];
    }
    if (vec) {
        simdk::warmTransformAvx2(args);
    } else {
        for (std::size_t i = 0; i < count; ++i)
            detail::warmTransformCell(args, i);
    }
}

} // namespace kernels
} // namespace pcmscrub
