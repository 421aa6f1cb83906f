/**
 * @file
 * Scalar reference pieces shared by the portable kernels
 * (kernels.cc) and the AVX2 translation unit (kernels_avx2.cc).
 *
 * The vector kernels process eight cells per step but must emit the
 * very bits the scalar loop would; tails shorter than one vector and
 * cells on diverged write clocks therefore run through these exact
 * helpers. Keeping them in one header (instead of duplicating the
 * arithmetic) is what makes "bit-identical" a structural property
 * rather than a test-enforced coincidence.
 */

#ifndef PCMSCRUB_PCM_KERNELS_IMPL_HH
#define PCMSCRUB_PCM_KERNELS_IMPL_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "pcm/cell_storage.hh"
#include "pcm/device_config.hh"
#include "pcm/kernels.hh"

namespace pcmscrub {
namespace kernels {
namespace detail {

/**
 * Per-line scratch for the two-stage program pipelines: stage A
 * fills the draw buffers from the line/manufacturing streams in the
 * exact scalar draw order, stage B (vector or scalar) transforms
 * them into plane bytes. Thread-local in kernels.cc, so parallel
 * shards never share a buffer.
 */
struct ProgramScratch
{
    std::vector<double> draws;      //!< line-stream normals
    std::vector<double> zE, zS;     //!< manufacturing z-scores
    std::vector<double> dIter, dLogR, dNu; //!< rewrite draw results
    std::vector<double> lnDNu;      //!< ln(dNu), 0 where dNu <= 0
    std::vector<std::uint8_t> level, alive;
};

/**
 * First-write wear-out screen bound: the warm cell freezes iff its
 * derived endurance float(exp(lnE)) <= 1.0 writes. exp(x) >= 1.28
 * for x > 1/4 even after float rounding, so only draws below the
 * cutoff pay the exact exp-and-compare.
 */
constexpr double kWarmWornLnCutoff = 0.25;

/**
 * QuantSpec::encodeNu with the spec constants passed by value, so
 * the vector kernels' scalar peel lanes can re-encode one cell
 * without the spec object. Expression-identical to the member
 * function (same compares, same lround of the same double chain).
 */
inline std::uint8_t
encodeNuValue(float value, double nu_min, double nu_max,
              double inv_nu_log_step)
{
    if (!(value > 0.0f))
        return 0; // Exact zero (clamped draws land here).
    const double v = static_cast<double>(value);
    if (v >= nu_max)
        return 254;
    if (v <= nu_min)
        return 1;
    const long code =
        std::lround(std::log(v / nu_min) * inv_nu_log_step) + 1;
    return static_cast<std::uint8_t>(std::clamp(code, 1L, 254L));
}

/**
 * Stage-B inputs of the warm-up pipeline: the Gray plane already
 * holds the target codeword, the z-score buffers hold this line's
 * draws in scalar order (zLine from the line stream, zE/zS from the
 * per-cell manufacturing streams; zS is null when the drift-speed
 * sigma is zero and no draw was taken). The transform writes logRq
 * and nuIdx only — pure function of the buffers, no RNG.
 */
struct WarmTransformArgs
{
    const std::uint8_t *gray;
    std::uint8_t *logRq;
    std::uint8_t *nuIdx;
    const double *zLine; //!< (logR0, drift) z-score pair per cell
    const double *zE;
    const double *zS;
    std::size_t count;
    double logRScale;
    double lnNuMin;
    double lnNuMax;
    double invNuLogStep;
    double logMedianE;
    double sigmaE;
    double sigmaS;
    double driftMu[mlcLevels];
    double driftSig[mlcLevels];
};

/**
 * Scalar stage B of warm-up for cell i: exactly the arithmetic of
 * the original fused loop, reading draws from the scratch buffers.
 * Serves as the oracle for warmTransformAvx2 and as its peel path
 * (wear-out screen hits, subnormal drift terms, quantizer ties).
 */
inline void
warmTransformCell(const WarmTransformArgs &a, std::size_t i)
{
    const unsigned g = (a.gray[i >> 2] >> ((i & 3u) * 2u)) & 3u;
    const unsigned level =
        grayToLevel(static_cast<std::uint8_t>(g));

    // logR0 = mean[level] + sigma * z1 and the code is the
    // step-quantized delta from that same mean (sigma/step hoisted
    // to one multiply).
    const double z1 = a.zLine[2 * i];
    const double z2 = a.zLine[2 * i + 1];
    const long code = std::lround(a.logRScale * z1) +
        QuantSpec::kLogR0Bias;
    a.logRq[i] =
        static_cast<std::uint8_t>(std::clamp(code, 0L, 255L));

    const double lnE = a.logMedianE + a.sigmaE * a.zE[i];
    if (lnE <= kWarmWornLnCutoff &&
        1.0 >= static_cast<double>(
                   static_cast<float>(std::exp(lnE)))) {
        // Worn out by its very first write: the write succeeded, the
        // gray plane already holds the target level, and the cell
        // freezes there.
        a.nuIdx[i] = QuantSpec::kStuckNuIdx;
        return;
    }
    const double lnS = a.zS == nullptr ? 0.0 : a.sigmaS * a.zS[i];

    // nu = nuSpeed * max(0, mu[level] + sigma(level) * z2), encoded
    // in the log domain (encodeNu's clamp structure on ln nu) so no
    // exp is ever needed.
    const double w = a.driftMu[level] + a.driftSig[level] * z2;
    if (w <= 0.0) {
        a.nuIdx[i] = 0;
        return;
    }
    const double lnV = lnS + std::log(w);
    if (lnV >= a.lnNuMax) {
        a.nuIdx[i] = 254;
    } else if (lnV <= a.lnNuMin) {
        a.nuIdx[i] = 1;
    } else {
        const long nuCode =
            std::lround((lnV - a.lnNuMin) * a.invNuLogStep) + 1;
        a.nuIdx[i] = static_cast<std::uint8_t>(
            std::clamp(nuCode, 1L, 254L));
    }
}

/**
 * Guard margin, in ln units, of the rewrite transform's log-domain
 * decisions. The scalar reference rounds to float twice on the way
 * to a stored nu (the drift-speed float, then the product), each
 * within a relative 2^-24, so its ln nu sits within 2^-23 =
 * 1.19209e-7 of lnS + ln(dNu); libm's exp/log and vlogPos add under
 * 1e-12. The endurance compare sees one float rounding. Lanes whose
 * decision lies closer than this to a boundary peel to the scalar
 * transform.
 */
constexpr double kProgramLnMargin = 1.2e-7;

/**
 * Stage-B inputs of the batched rewrite pipeline. Stage A decoded
 * the target levels, deposited them in the Gray plane (stuck cells'
 * frozen symbols preserved), and drew the line stream in scalar
 * order into dIter/dLogR/dNu (dIter is meaningful for intermediate
 * levels only — the scalar path draws it first). The manufacturing
 * state arrives in the log domain: lnE = logMedianE + sigmaE * zE
 * and lnS = sigmaS * zS (zS null: lnS = 0) — the exact doubles
 * sampleManufacturing feeds to exp for compact storage. Aux-mode
 * storage passes the ln of its stored floats with an identity
 * affine map (0, 1, 1) and the floats themselves in auxEndurance /
 * auxNuSpeed, which the scalar transform reads instead of deriving.
 * ovWrites / ovTicks point into the materialized overlay, or are
 * null when the line stays on its uniform clock (then uniformWrites
 * is the shared pre-write count).
 */
struct ProgramTransformArgs
{
    std::uint8_t *logRq;
    std::uint8_t *nuIdx;
    const std::uint8_t *level;
    const std::uint8_t *alive;
    const double *dIter;
    const double *dLogR;
    const double *dNu;
    const double *lnDNu; //!< vector path only: ln(dNu), 0 if dNu <= 0
    const double *zE;
    const double *zS;
    const float *auxEndurance;
    const float *auxNuSpeed;
    std::uint32_t *ovWrites;
    Tick *ovTicks;
    std::size_t count;
    Tick now;
    std::uint32_t uniformWrites;
    double logMedianE;
    double sigmaE;
    double sigmaS;
    double maxIterations;
    double meanLogR[mlcLevels];
    double logR0Step;
    double nuMin;
    double nuMax;
    double lnNuMin;
    double lnNuMax;
    double invNuLogStep;
};

/**
 * Scalar stage B of one rewritten cell: CellModel::program's
 * arithmetic on the pre-drawn values followed by storePhysics'
 * encodes, fused so the float round-trips happen exactly once each,
 * in the model's order. The manufacturing floats are
 * sampleManufacturing's float(exp(...)) of the same doubles (or the
 * aux planes' stored floats), so they equal what loadCell would
 * derive. meanLogR[level] is the same double QuantSpec keys by Gray
 * code (meanByGray[gray] is defined as
 * levelMeanLogR[grayToLevel(gray)]), so the encode delta is
 * bit-identical to encodeLogR0's. Oracle and tail/peel path of
 * programTransformAvx2.
 */
inline void
programTransformCell(const ProgramTransformArgs &a, std::size_t i,
                     LineProgramStats &stats)
{
    if (!a.alive[i])
        return;
    float enduranceF, nuSpeedF;
    if (a.auxEndurance != nullptr) {
        enduranceF = a.auxEndurance[i];
        nuSpeedF = a.auxNuSpeed[i];
    } else {
        enduranceF = static_cast<float>(
            std::exp(a.logMedianE + a.sigmaE * a.zE[i]));
        nuSpeedF = a.zS == nullptr
            ? 1.0f
            : static_cast<float>(std::exp(a.sigmaS * a.zS[i]));
    }
    const unsigned level = a.level[i];
    unsigned iterations = 1;
    if (level != 0 && level != mlcLevels - 1) {
        iterations = static_cast<unsigned>(std::clamp(
            std::round(a.dIter[i]), 1.0, a.maxIterations));
    }
    const float logR0 = static_cast<float>(a.dLogR[i]);
    const double delta =
        static_cast<double>(logR0) - a.meanLogR[level];
    const long code =
        std::lround(delta / a.logR0Step) + QuantSpec::kLogR0Bias;
    a.logRq[i] =
        static_cast<std::uint8_t>(std::clamp(code, 0L, 255L));

    const float nu = static_cast<float>(
        static_cast<double>(nuSpeedF) * std::max(0.0, a.dNu[i]));
    const std::uint32_t writes =
        (a.ovWrites != nullptr ? a.ovWrites[i] : a.uniformWrites) +
        1;
    const bool worn = static_cast<double>(writes) >=
        static_cast<double>(enduranceF);
    a.nuIdx[i] = worn
        ? QuantSpec::kStuckNuIdx
        : encodeNuValue(nu, a.nuMin, a.nuMax, a.invNuLogStep);
    if (a.ovWrites != nullptr) {
        a.ovWrites[i] = writes;
        a.ovTicks[i] = a.now;
    }
    ++stats.cellsProgrammed;
    stats.totalIterations += iterations;
    stats.cellsWornOut += worn;
}

/**
 * Hoisted drift-age term: u = log10(age / t0) for one program tick.
 * Cells written by the same full write share their tick, so the
 * common case evaluates one log10 per line; the cache re-evaluates
 * only when a cell sits on a different clock. The arithmetic is
 * exactly CellModel::senseLogR's, so the cached value is the value
 * the per-cell path would compute.
 */
class DriftAgeCache
{
  public:
    DriftAgeCache(Tick now, double t0_seconds)
        : now_(now), t0Seconds_(t0_seconds)
    {
    }

    double u(Tick write_tick)
    {
        if (!valid_ || write_tick != cachedTick_) {
            PCMSCRUB_ASSERT(now_ >= write_tick,
                            "reading before the cell was written");
            const double age = ticksToSeconds(now_ - write_tick);
            cachedU_ = age > t0Seconds_
                ? std::log10(age / t0Seconds_)
                : 0.0;
            cachedTick_ = write_tick;
            valid_ = true;
        }
        return cachedU_;
    }

  private:
    Tick now_;
    double t0Seconds_;
    Tick cachedTick_ = 0;
    double cachedU_ = 0.0;
    bool valid_ = false;
};

/** Sensed level of cell i: CellModel::read() against the planes. */
inline unsigned
senseLevel(const CellConstSpan &cells, std::size_t i,
           const DeviceConfig &config, DriftAgeCache &age,
           double threshold_shift)
{
    if (cells.stuck(i))
        return cells.levelAt(i); // The gray plane holds the frozen
                                 // level.
    const double logR = static_cast<double>(cells.logR0(i)) +
        static_cast<double>(cells.nu(i)) * age.u(cells.writeTick(i));
    unsigned level = 0;
    for (unsigned l = 0; l + 1 < mlcLevels; ++l) {
        if (logR > config.readThresholdLogR[l] + threshold_shift)
            level = l + 1;
    }
    return level;
}

/**
 * Whether the light margin read would flag cell i — the scalar body
 * of marginScanCount (batched CellModel::marginFlagged, one sense
 * serving both the level decision and the band check).
 */
inline bool
marginFlagged(const CellConstSpan &cells, std::size_t i,
              const DeviceConfig &config, DriftAgeCache &age)
{
    if (cells.stuck(i))
        return false;
    const double logR = static_cast<double>(cells.logR0(i)) +
        static_cast<double>(cells.nu(i)) * age.u(cells.writeTick(i));
    unsigned level = 0;
    for (unsigned l = 0; l + 1 < mlcLevels; ++l) {
        if (logR > config.readThresholdLogR[l])
            level = l + 1;
    }
    if (!config.hasUpperThreshold(level))
        return false;
    return logR > config.readThresholdLogR[level] -
        config.marginBandLogR;
}

} // namespace detail
} // namespace kernels
} // namespace pcmscrub

#endif // PCMSCRUB_PCM_KERNELS_IMPL_HH
