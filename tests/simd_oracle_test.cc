/**
 * @file
 * The SIMD/scalar oracle: every vectorized kernel must produce the
 * exact bits of its scalar reference loop, for adversarial plane
 * contents the physics would rarely produce — random quantized
 * bytes, dense stuck sentinels, odd line widths whose planes start
 * at unaligned byte offsets, and sub-vector tails. Each case runs
 * the same computation twice, flipping the simd::setEnabled()
 * switch, and demands equality. On builds or CPUs without AVX2 both
 * runs take the scalar path and the suite degenerates to a (still
 * valid) self-comparison.
 *
 * The BCH cases drive full encode → corrupt → decode round trips so
 * the vector syndrome accumulation and Chien scan are checked
 * through the public API, including the Uncorrectable verdicts that
 * depend on the Chien early-exit contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/simd.hh"
#include "ecc/bch.hh"
#include "ecc/bch_simd.hh"
#include "faults/fault_injector.hh"
#include "pcm/cell.hh"
#include "pcm/cell_storage.hh"
#include "pcm/kernels.hh"
#include "pcm/kernels_simd.hh"
#include "pcm/line.hh"

namespace pcmscrub {
namespace {

/** Restores the dispatch switch even when an assertion bails out. */
class SimdSwitch
{
  public:
    ~SimdSwitch() { simd::setEnabled(true); }
};

/**
 * Storage with adversarially random plane bytes: quantized values
 * and Gray symbols drawn uniformly, nu indices hitting the stuck
 * sentinel at `stuckFraction`. Several lines, so line > 0 exercises
 * plane base offsets that are not 32-byte (or even 4-byte) aligned
 * when cellsPerLine is odd.
 */
void
randomizePlanes(CellStorage &store, Random &rng, double stuckFraction)
{
    for (std::size_t i = 0; i < store.size(); ++i) {
        store.setRawLogRq(
            i, static_cast<std::uint8_t>(rng.uniformInt(256)));
        store.setGray(i, static_cast<unsigned>(rng.uniformInt(4)));
        std::uint8_t nuIdx =
            static_cast<std::uint8_t>(rng.uniformInt(255));
        if (rng.bernoulli(stuckFraction))
            nuIdx = QuantSpec::kStuckNuIdx;
        store.setRawNuIdx(i, nuIdx);
    }
    for (std::size_t line = 0; line < store.lineCount(); ++line)
        store.setLineMeta(line, secondsToTicks(1.0), 1 + line);
}

/** Cell counts chosen to cover every tail residue and tiny lines. */
const std::size_t kCellCounts[] = {5, 8, 9, 13, 16, 23, 131, 256, 296};

TEST(SimdOracle, SenseMatchesScalarOnRandomPlanes)
{
    SimdSwitch restore;
    const DeviceConfig config;
    for (const std::size_t cells : kCellCounts) {
        for (const double stuckFraction : {0.0, 0.05, 0.5}) {
            CellStorage store;
            CellStorage::Geometry g;
            g.lines = 3;
            g.cellsPerLine = cells;
            g.intendedWordsPerLine = (2 * cells + 63) / 64;
            g.auxPlanes = false;
            g.manufSeed = 7;
            store.configure(g);
            store.ensureSpec(config);
            Random rng(cells * 977 +
                       static_cast<std::uint64_t>(stuckFraction * 100));
            randomizePlanes(store, rng, stuckFraction);

            const std::size_t bits = 2 * cells - 1; // Odd width.
            for (std::size_t line = 0; line < g.lines; ++line) {
                const CellConstSpan span = store.constSpan(line, cells);
                for (const double age : {1.5, 7200.0, 3e6}) {
                    const Tick now = secondsToTicks(age);
                    for (const double shift : {0.0, 0.15}) {
                        SCOPED_TRACE("cells " + std::to_string(cells) +
                                     " line " + std::to_string(line) +
                                     " age " + std::to_string(age));
                        simd::setEnabled(false);
                        const BitVector scalar = kernels::senseCodeword(
                            span, bits, false, config, now, shift);
                        const unsigned scalarMargin =
                            kernels::marginScanCount(span, config, now);
                        simd::setEnabled(true);
                        const BitVector vector = kernels::senseCodeword(
                            span, bits, false, config, now, shift);
                        const unsigned vectorMargin =
                            kernels::marginScanCount(span, config, now);
                        EXPECT_EQ(scalar, vector);
                        EXPECT_EQ(scalarMargin, vectorMargin);
                    }
                }
            }
        }
    }
}

TEST(SimdOracle, SenseAvx2AgreesWithScalarHelperDirectly)
{
    if (!kernels::simdk::available())
        GTEST_SKIP() << "AVX2 unavailable; dispatch test covers this";
    SimdSwitch restore;
    const DeviceConfig config;
    CellStorage store;
    CellStorage::Geometry g;
    g.lines = 2;
    g.cellsPerLine = 296;
    g.intendedWordsPerLine = 10;
    g.auxPlanes = false;
    g.manufSeed = 11;
    store.configure(g);
    store.ensureSpec(config);
    Random rng(42);
    randomizePlanes(store, rng, 0.1);

    const CellConstSpan span = store.constSpan(1, 296);
    const Tick now = secondsToTicks(9000.0);
    simd::setEnabled(false);
    const BitVector scalar =
        kernels::senseCodeword(span, 592, false, config, now, 0.0);
    const unsigned scalarMargin =
        kernels::marginScanCount(span, config, now);
    const BitVector vector = kernels::simdk::senseCodewordAvx2(
        span, 592, config, now, 0.0);
    EXPECT_EQ(scalar, vector);
    EXPECT_EQ(scalarMargin,
              kernels::simdk::marginScanCountAvx2(span, config, now));
}

/**
 * Encode random payloads, inject 0..t+2 random bit errors, and
 * decode with each path: status, corrected-bit count, and the final
 * codeword must match bit for bit — including Uncorrectable
 * verdicts, which exercise the Chien root-count contract.
 */
TEST(SimdOracle, BchDecodeMatchesScalarAcrossErrorCounts)
{
    SimdSwitch restore;
    struct Shape
    {
        std::size_t dataBits;
        unsigned t;
    };
    // t = 3 keeps terms < 8 (vector syndrome declines, Chien still
    // vectorizes); t = 8 and 16 hit the 2- and 4-register syndrome
    // accumulators; 171 bits gives an odd codeword width.
    const Shape shapes[] = {{64, 4}, {171, 3}, {512, 8}, {512, 16}};
    for (const Shape &shape : shapes) {
        const BchCode code(shape.dataBits, shape.t);
        Random rng(shape.dataBits * 31 + shape.t);
        for (unsigned errors = 0; errors <= shape.t + 2; ++errors) {
            for (unsigned trial = 0; trial < 8; ++trial) {
                BitVector data(shape.dataBits);
                data.randomize(rng);
                const BitVector clean = code.encode(data);
                BitVector corrupted = clean;
                for (unsigned e = 0; e < errors; ++e)
                    corrupted.flip(rng.uniformInt(corrupted.size()));

                BitVector scalarWord = corrupted;
                BitVector vectorWord = corrupted;
                simd::setEnabled(false);
                const DecodeResult scalar = code.decode(scalarWord);
                const bool scalarCheck = code.check(corrupted);
                simd::setEnabled(true);
                const DecodeResult vector = code.decode(vectorWord);

                SCOPED_TRACE("t " + std::to_string(shape.t) +
                             " errors " + std::to_string(errors) +
                             " trial " + std::to_string(trial));
                EXPECT_EQ(scalar.status, vector.status);
                EXPECT_EQ(scalar.correctedBits, vector.correctedBits);
                EXPECT_EQ(scalarWord, vectorWord);
                EXPECT_EQ(scalarCheck, code.check(corrupted));
            }
        }
    }
}

TEST(SimdOracle, ChienScanHandlesSubVectorTailAndEarlyExit)
{
    if (!bchsimd::available())
        GTEST_SKIP() << "AVX2 unavailable; dispatch test covers this";
    // A tiny field (m = 4, order 15) forces the vector scan into its
    // scalar tail after one 8-lane step; random locator terms probe
    // it against the reference loop.
    const BchCode code(11, 1); // GF(2^4).
    Random rng(9);
    for (unsigned trial = 0; trial < 200; ++trial) {
        BitVector data(11);
        data.randomize(rng);
        BitVector word = code.encode(data);
        for (unsigned e = 0; e < trial % 4; ++e)
            word.flip(rng.uniformInt(word.size()));
        BitVector scalarWord = word;
        BitVector vectorWord = word;
        SimdSwitch restore;
        simd::setEnabled(false);
        const DecodeResult scalar = code.decode(scalarWord);
        simd::setEnabled(true);
        const DecodeResult vector = code.decode(vectorWord);
        EXPECT_EQ(scalar.status, vector.status);
        EXPECT_EQ(scalarWord, vectorWord);
    }
}

/**
 * Warm-program kernel vs its scalar transform loop: identical plane
 * bytes and identical draw consumption, for odd codeword widths
 * (half-cell tails), a device that freezes most cells at
 * manufacturing (the worn branch), and a zero drift-speed sigma
 * (the branch that skips the second manufacturing draw).
 */
TEST(SimdOracle, WarmProgramMatchesScalarOnAdversarialWidths)
{
    SimdSwitch restore;
    DeviceConfig configs[3];
    configs[1].enduranceMedian = 1.0; // lnE ~ 0: most cells freeze.
    configs[1].enduranceSigmaLn = 0.5;
    configs[2].driftSpeedSigmaLn = 0.0; // No per-cell speed draw.
    for (unsigned c = 0; c < 3; ++c) {
        const DeviceConfig &config = configs[c];
        for (const std::size_t cells : kCellCounts) {
            const std::size_t bits = 2 * cells - 1; // Odd width.
            BitVector word(bits);
            Random data(cells * 5 + c);
            word.randomize(data);
            CellStorage stores[2];
            Random rngs[2] = {Random(cells * 7 + 1),
                              Random(cells * 7 + 1)};
            for (int v = 0; v < 2; ++v) {
                CellStorage::Geometry g;
                g.lines = 3;
                g.cellsPerLine = cells;
                g.intendedWordsPerLine = (bits + 63) / 64;
                g.auxPlanes = false;
                g.manufSeed = 13;
                stores[v].configure(g);
                stores[v].ensureSpec(config);
                simd::setEnabled(v == 1);
                // Line 1: plane bases unaligned when cells is odd.
                kernels::warmProgramCodeword(stores[v].span(1, cells),
                                             word, bits, config,
                                             rngs[v]);
            }
            simd::setEnabled(true);
            SCOPED_TRACE("config " + std::to_string(c) + " cells " +
                         std::to_string(cells));
            const CellConstSpan a = stores[0].constSpan(1, cells);
            const CellConstSpan b = stores[1].constSpan(1, cells);
            for (std::size_t i = 0; i < cells; ++i) {
                EXPECT_EQ(a.logRq[i], b.logRq[i]) << "cell " << i;
                EXPECT_EQ(a.nuIdx[i], b.nuIdx[i]) << "cell " << i;
                EXPECT_EQ(a.grayAt(i), b.grayAt(i)) << "cell " << i;
            }
            // Same number of line-stream draws consumed.
            EXPECT_EQ(rngs[0].next(), rngs[1].next());
        }
    }
}

/**
 * A device config and the pre-write count of the rewritten line (the
 * random planes' line 1 has written twice) that steer the rewrite
 * transform's log-domain decisions onto its peels.
 */
struct RewriteEdge
{
    DeviceConfig config;
    std::uint64_t lineWrites = 2;
};

/**
 * Index 0 is the default device; 1 kills many cells this write (the
 * worn-out branch); 2 draws dNu <= 0 for a third of the cells (code 0
 * in lanes); 3 gives level-0 cells subnormal positive dNu; 4 pins
 * level-0 nu to nuMin, level-3 nu to nuMax and levels 1-2 onto
 * quantizer half-step ties; 5 puts every endurance within the margin
 * of the post-write count; 6 widens the nu envelope past e^20 while
 * level-0 dNu is 1e-300, so an infinite drift speed (aux pins) lands
 * inside it in the log domain; 7 wraps the u32 write count to zero
 * on cells whose endurance float underflows to zero.
 */
std::vector<RewriteEdge>
rewriteEdges()
{
    std::vector<RewriteEdge> edges(8);
    edges[1].config.enduranceMedian = 2.0;
    edges[1].config.enduranceSigmaLn = 0.5;
    edges[2].config.driftSigmaRatio = 2.0;
    edges[3].config.driftMu[0] = 1e-310;
    DeviceConfig &bounds = edges[4].config;
    bounds.driftSpeedSigmaLn = 0.0;
    bounds.driftSigmaRatio = 1e-10;
    QuantSpec spec;
    spec.init(bounds); // nuMax comes from level 3 alone.
    bounds.driftMu[0] = spec.nuMin();
    bounds.driftMu[1] =
        spec.nuMin() * std::exp(100.5 * spec.nuLogStep());
    bounds.driftMu[2] =
        spec.nuMin() * std::exp(200.5 * spec.nuLogStep());
    edges[5].config.enduranceMedian = 3.0;
    edges[5].config.enduranceSigmaLn = 1e-10;
    edges[6].config.driftMu = {1e-300, 0.02, 0.055, 1e9};
    edges[6].config.driftSigmaRatio = 0.0;
    edges[7].config.enduranceMedian = 1e-50;
    edges[7].lineWrites = 0xffffffffULL;
    return edges;
}

/**
 * Rewrite-program kernel (the batched two-stage pipeline behind
 * programCodeword) vs the per-cell scalar loop, on adversarial
 * random planes: stuck densities force the overlay + frozen-symbol
 * merge path, odd widths leave a half-cell tail, and the edge cases
 * reach every peel of the log-domain transform.
 */
TEST(SimdOracle, RewriteProgramMatchesScalarOnAdversarialPlanes)
{
    SimdSwitch restore;
    const std::vector<RewriteEdge> edges = rewriteEdges();
    for (unsigned c = 0; c < edges.size(); ++c) {
        const DeviceConfig &config = edges[c].config;
        const CellModel model(config);
        for (const std::size_t cells : kCellCounts) {
            for (const double stuckFraction : {0.0, 0.3}) {
                const std::size_t bits = 2 * cells - 1;
                BitVector word(bits);
                Random data(cells * 3 + c);
                word.randomize(data);
                CellStorage stores[2];
                LineProgramStats stats[2];
                Random rngs[2] = {Random(cells * 11 + 2),
                                  Random(cells * 11 + 2)};
                for (int v = 0; v < 2; ++v) {
                    CellStorage::Geometry g;
                    g.lines = 3;
                    g.cellsPerLine = cells;
                    g.intendedWordsPerLine = (bits + 63) / 64;
                    g.auxPlanes = false;
                    g.manufSeed = 13;
                    stores[v].configure(g);
                    stores[v].ensureSpec(config);
                    Random planes(cells * 31 +
                                  static_cast<std::uint64_t>(
                                      stuckFraction * 1000));
                    randomizePlanes(stores[v], planes, stuckFraction);
                    stores[v].setLineMeta(1, secondsToTicks(1.0),
                                          edges[c].lineWrites);
                    simd::setEnabled(v == 1);
                    stats[v] = kernels::programCodeword(
                        stores[v].span(1, cells), word, bits,
                        /*slc_mode=*/false, secondsToTicks(7200.0),
                        model, rngs[v], /*differential=*/false);
                }
                simd::setEnabled(true);
                SCOPED_TRACE("config " + std::to_string(c) +
                             " cells " + std::to_string(cells) +
                             " stuck " +
                             std::to_string(stuckFraction));
                EXPECT_EQ(stats[0].cellsProgrammed,
                          stats[1].cellsProgrammed);
                EXPECT_EQ(stats[0].totalIterations,
                          stats[1].totalIterations);
                EXPECT_EQ(stats[0].cellsWornOut,
                          stats[1].cellsWornOut);
                const CellConstSpan a = stores[0].constSpan(1, cells);
                const CellConstSpan b = stores[1].constSpan(1, cells);
                for (std::size_t i = 0; i < cells; ++i) {
                    EXPECT_EQ(a.logRq[i], b.logRq[i]) << "cell " << i;
                    EXPECT_EQ(a.nuIdx[i], b.nuIdx[i]) << "cell " << i;
                    EXPECT_EQ(a.grayAt(i), b.grayAt(i))
                        << "cell " << i;
                    EXPECT_EQ(a.writeTick(i), b.writeTick(i))
                        << "cell " << i;
                }
                EXPECT_EQ(rngs[0].next(), rngs[1].next());
            }
        }
    }
}

/**
 * The same oracle on a standalone aux-mode Line, whose rewrite feeds
 * the transform the ln of its stored manufacturing floats. Every
 * third cell carries pinned floats, cycling through endurances
 * exactly at the first and second post-write counts (ties only the
 * scalar compare can settle), zero and infinite endurance, and zero,
 * subnormal and infinite drift speeds. Two writes per line, so the
 * second sees a nonzero count.
 */
TEST(SimdOracle, RewriteProgramMatchesScalarOnAuxLine)
{
    SimdSwitch restore;
    const std::vector<RewriteEdge> edges = rewriteEdges();
    const float inf = std::numeric_limits<float>::infinity();
    for (unsigned c = 0; c < edges.size(); ++c) {
        const CellModel model(edges[c].config);
        for (const std::size_t cells : kCellCounts) {
            const std::size_t bits = 2 * cells;
            Line lines[2] = {Line(bits), Line(bits)};
            Random rngs[2] = {Random(cells * 17 + c),
                              Random(cells * 17 + c)};
            LineProgramStats stats[2][2];
            for (int v = 0; v < 2; ++v) {
                lines[v].initialize(model, rngs[v]);
                // (endurance, drift speed) pairs.
                const float pins[][2] = {
                    {1.0f, 1.0f}, {2.0f, 1.0f},  {0.0f, 1.0f},
                    {inf, 1.0f},  {1e9f, 0.0f}, {1e9f, 1e-40f},
                    {1e9f, inf}};
                constexpr std::size_t kPins = sizeof pins / sizeof pins[0];
                for (std::size_t k = 0; 3 * k < cells; ++k) {
                    const unsigned cellIndex =
                        static_cast<unsigned>(3 * k);
                    Cell cell = lines[v].cellValue(cellIndex);
                    cell.enduranceWrites = pins[k % kPins][0];
                    cell.nuSpeed = pins[k % kPins][1];
                    lines[v].storeCell(cellIndex, cell);
                }
                simd::setEnabled(v == 1);
                for (int w = 0; w < 2; ++w) {
                    BitVector word(bits);
                    Random data(cells * 5 + w);
                    word.randomize(data);
                    stats[v][w] = lines[v].writeCodeword(
                        word, secondsToTicks(60.0 * (w + 1)), model,
                        rngs[v]);
                }
            }
            simd::setEnabled(true);
            SCOPED_TRACE("config " + std::to_string(c) + " cells " +
                         std::to_string(cells));
            for (int w = 0; w < 2; ++w) {
                EXPECT_EQ(stats[0][w].cellsProgrammed,
                          stats[1][w].cellsProgrammed);
                EXPECT_EQ(stats[0][w].totalIterations,
                          stats[1][w].totalIterations);
                EXPECT_EQ(stats[0][w].cellsWornOut,
                          stats[1][w].cellsWornOut);
            }
            const CellConstSpan a = std::as_const(lines[0]).span();
            const CellConstSpan b = std::as_const(lines[1]).span();
            for (std::size_t i = 0; i < cells; ++i) {
                EXPECT_EQ(a.logRq[i], b.logRq[i]) << "cell " << i;
                EXPECT_EQ(a.nuIdx[i], b.nuIdx[i]) << "cell " << i;
                EXPECT_EQ(a.grayAt(i), b.grayAt(i)) << "cell " << i;
                EXPECT_EQ(a.writeTick(i), b.writeTick(i))
                    << "cell " << i;
            }
            EXPECT_EQ(rngs[0].next(), rngs[1].next());
        }
    }
}

/**
 * Batched fault deposits vs a per-bit reference running the exact
 * same draw sequence on its own clone of the lane stream: the
 * word-level XOR masks of corruptSpan (including bursts straddling
 * 64-bit word boundaries and the cached-exponential Poisson
 * overload) must corrupt exactly the bits the historical per-flip
 * loop would have. Widths sit on and around word boundaries.
 */
TEST(SimdOracle, BatchedFaultDepositsMatchPerBitReference)
{
    FaultCampaignConfig campaign;
    campaign.disturbFlipsPerRead = 1.7;
    campaign.burstProbPerRead = 0.6;
    campaign.burstBits = 13;
    campaign.seed = 2026;
    FaultInjector injector(campaign);
    injector.shardStreams(4);
    const std::size_t widths[4] = {65, 70, 127, 131};
    std::uint64_t refFlips = 0;
    std::uint64_t refBursts = 0;
    for (std::size_t shard = 0; shard < 4; ++shard) {
        const std::size_t bits = widths[shard];
        Random ref = Random::stream(campaign.seed, shard);
        Random payload(shard * 97 + 1);
        BitVector word(bits);
        word.randomize(payload);
        BitVector mirror = word;
        for (int iter = 0; iter < 200; ++iter) {
            injector.corruptWord(word, shard);
            const std::uint64_t flips =
                ref.poisson(campaign.disturbFlipsPerRead);
            for (std::uint64_t f = 0; f < flips; ++f)
                mirror.flip(ref.uniformInt(mirror.size()));
            refFlips += flips;
            if (ref.bernoulli(campaign.burstProbPerRead)) {
                ++refBursts;
                const std::size_t len = campaign.burstBits;
                const std::size_t start =
                    ref.uniformInt(bits - len + 1);
                for (std::size_t i = 0; i < len; ++i)
                    mirror.flip(start + i);
                refFlips += len;
            }
            ASSERT_EQ(word, mirror)
                << "shard " << shard << " iter " << iter;
        }
    }
    EXPECT_EQ(injector.stats().transientFlips, refFlips);
    EXPECT_EQ(injector.stats().bursts, refBursts);
}

} // namespace
} // namespace pcmscrub
