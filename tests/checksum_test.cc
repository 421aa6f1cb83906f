/**
 * @file
 * Tests for the lightweight interleaved-parity detector.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "ecc/checksum.hh"

namespace pcmscrub {
namespace {

TEST(LightDetector, CleanDataMatches)
{
    const LightDetector det(512, 16);
    Random rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        BitVector data(512);
        data.randomize(rng);
        const BitVector word = det.compute(data);
        EXPECT_EQ(word.size(), 16u);
        EXPECT_TRUE(det.matches(data, word));
    }
}

TEST(LightDetector, SingleErrorsAlwaysDetected)
{
    const LightDetector det(512, 8);
    Random rng(2);
    BitVector data(512);
    data.randomize(rng);
    const BitVector word = det.compute(data);
    for (std::size_t bit = 0; bit < data.size(); ++bit) {
        BitVector corrupted = data;
        corrupted.flip(bit);
        EXPECT_FALSE(det.matches(corrupted, word)) << "bit " << bit;
    }
}

TEST(LightDetector, OddErrorCountsAlwaysDetected)
{
    const LightDetector det(256, 16);
    Random rng(3);
    BitVector data(256);
    data.randomize(rng);
    const BitVector word = det.compute(data);
    for (int trial = 0; trial < 200; ++trial) {
        BitVector corrupted = data;
        std::set<std::size_t> bits;
        while (bits.size() < 5) {
            const std::size_t b = rng.uniformInt(256);
            if (bits.insert(b).second)
                corrupted.flip(b);
        }
        EXPECT_FALSE(det.matches(corrupted, word)) << "trial " << trial;
    }
    EXPECT_EQ(det.missProbability(5), 0.0);
}

TEST(LightDetector, TwoErrorsInSameClassAreMissed)
{
    const LightDetector det(64, 8);
    Random rng(4);
    BitVector data(64);
    data.randomize(rng);
    const BitVector word = det.compute(data);
    BitVector corrupted = data;
    corrupted.flip(3);
    corrupted.flip(3 + 8); // Same parity class (mod 8).
    EXPECT_TRUE(det.matches(corrupted, word));
    corrupted = data;
    corrupted.flip(3);
    corrupted.flip(4); // Different classes: detected.
    EXPECT_FALSE(det.matches(corrupted, word));
}

TEST(LightDetector, MissProbabilityMatchesEmpiricalRate)
{
    const unsigned s = 8;
    const LightDetector det(512, s);
    Random rng(5);
    BitVector data(512);
    data.randomize(rng);
    const BitVector word = det.compute(data);

    const unsigned errors = 4;
    int missed = 0;
    const int trials = 200000;
    for (int trial = 0; trial < trials; ++trial) {
        BitVector corrupted = data;
        std::set<std::size_t> bits;
        while (bits.size() < errors) {
            const std::size_t b = rng.uniformInt(512);
            if (bits.insert(b).second)
                corrupted.flip(b);
        }
        missed += det.matches(corrupted, word);
    }
    const double empirical = missed / static_cast<double>(trials);
    const double analytic = det.missProbability(errors);
    EXPECT_NEAR(empirical, analytic, analytic * 0.25 + 1e-4);
}

TEST(LightDetector, MissProbabilityBasics)
{
    const LightDetector det(512, 16);
    EXPECT_EQ(det.missProbability(0), 1.0);
    EXPECT_EQ(det.missProbability(1), 0.0);
    EXPECT_EQ(det.missProbability(3), 0.0);
    const double m2 = det.missProbability(2);
    // Two errors collide in the same class with probability 1/s.
    EXPECT_NEAR(m2, 1.0 / 16.0, 1e-12);
    EXPECT_GT(det.missProbability(4), 0.0);
    EXPECT_LT(det.missProbability(4), m2);
}

TEST(LightDetector, WiderDetectorMissesLess)
{
    const LightDetector narrow(512, 4);
    const LightDetector wide(512, 32);
    for (const unsigned e : {2u, 4u, 6u}) {
        EXPECT_LT(wide.missProbability(e), narrow.missProbability(e))
            << "e=" << e;
    }
}

TEST(CrcDetector, CleanDataMatchesAndIsDeterministic)
{
    const CrcDetector det(512, 16);
    EXPECT_EQ(det.name(), "CRC-16");
    EXPECT_EQ(det.storedBits(), 16u);
    Random rng(11);
    BitVector data(512);
    data.randomize(rng);
    const BitVector a = det.compute(data);
    const BitVector b = det.compute(data);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(det.matches(data, a));
}

TEST(CrcDetector, EverySingleBitErrorDetected)
{
    for (const unsigned width : {8u, 16u, 32u}) {
        const CrcDetector det(256, width);
        Random rng(12);
        BitVector data(256);
        data.randomize(rng);
        const BitVector word = det.compute(data);
        for (std::size_t bit = 0; bit < 256; ++bit) {
            BitVector corrupted = data;
            corrupted.flip(bit);
            EXPECT_FALSE(det.matches(corrupted, word))
                << "width " << width << " bit " << bit;
        }
        EXPECT_EQ(det.missProbability(1), 0.0);
    }
}

TEST(CrcDetector, ShortBurstsDetected)
{
    // CRC-w catches all bursts shorter than w bits.
    const CrcDetector det(512, 16);
    Random rng(13);
    BitVector data(512);
    data.randomize(rng);
    const BitVector word = det.compute(data);
    for (int trial = 0; trial < 300; ++trial) {
        BitVector corrupted = data;
        const std::size_t start = rng.uniformInt(512 - 15);
        const unsigned len = 2 + static_cast<unsigned>(
            rng.uniformInt(14));
        for (unsigned i = 0; i < len; ++i)
            corrupted.flip(start + i);
        EXPECT_FALSE(det.matches(corrupted, word)) << trial;
    }
}

TEST(CrcDetector, RandomMultiErrorMissRateMatchesAnalytic)
{
    // CRC-8-ATM has an (x+1) factor: even-weight patterns alias at
    // 2^-7 within the even-parity subspace.
    const CrcDetector det(512, 8);
    Random rng(14);
    BitVector data(512);
    data.randomize(rng);
    const BitVector word = det.compute(data);
    int missed = 0;
    const int trials = 60000;
    for (int trial = 0; trial < trials; ++trial) {
        BitVector corrupted = data;
        for (int e = 0; e < 4; ++e)
            corrupted.flip(rng.uniformInt(512));
        missed += det.matches(corrupted, word);
    }
    const double empirical = missed / static_cast<double>(trials);
    EXPECT_NEAR(empirical, det.missProbability(4), 3e-3);
}

TEST(CrcDetector, BeatsParityOnMissFloor)
{
    const CrcDetector crc(512, 16);
    const LightDetector parity(512, 16, 2);
    for (const unsigned e : {2u, 4u, 8u})
        EXPECT_LT(crc.missProbability(e), parity.missProbability(e))
            << "e " << e;
}

TEST(DetectorFactory, BuildsBothFamilies)
{
    const auto parity = makeDetector(DetectorKind::InterleavedParity,
                                     512, 16, 2);
    EXPECT_EQ(parity->storedBits(), 16u);
    const auto crc = makeDetector(DetectorKind::Crc, 512, 32);
    EXPECT_EQ(crc->storedBits(), 32u);
}

TEST(CrcDetectorDeath, UnsupportedWidthIsFatal)
{
    EXPECT_EXIT(CrcDetector(512, 12), ::testing::ExitedWithCode(1),
                "unsupported");
}

} // namespace
} // namespace pcmscrub
