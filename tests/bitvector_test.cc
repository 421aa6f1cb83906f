/**
 * @file
 * Unit tests for the packed bit vector.
 */

#include <gtest/gtest.h>

#include "common/bitvector.hh"
#include "common/random.hh"

namespace pcmscrub {
namespace {

TEST(BitVector, StartsAllZero)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.popcount(), 0u);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_FALSE(v.get(i));
}

TEST(BitVector, SetGetFlipAcrossWordBoundaries)
{
    BitVector v(200);
    for (const std::size_t i : {0ul, 1ul, 63ul, 64ul, 65ul, 127ul,
                                128ul, 199ul}) {
        v.set(i, true);
        EXPECT_TRUE(v.get(i)) << "bit " << i;
        v.flip(i);
        EXPECT_FALSE(v.get(i)) << "bit " << i;
        v.flip(i);
        EXPECT_TRUE(v.get(i)) << "bit " << i;
    }
    EXPECT_EQ(v.popcount(), 8u);
}

TEST(BitVector, ExtractDepositRoundTrip)
{
    BitVector v(160);
    v.deposit(60, 10, 0x2ABu); // Crosses the word-0/word-1 boundary.
    EXPECT_EQ(v.extract(60, 10), 0x2ABu);
    v.deposit(0, 64, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(v.extract(0, 64), 0xDEADBEEFCAFEF00DULL);
    // The earlier deposit overlapped [60,64); re-check the upper part.
    EXPECT_EQ(v.extract(64, 6), 0x2ABu >> 4);
}

TEST(BitVector, DepositMasksValueToWidth)
{
    BitVector v(32);
    v.deposit(4, 4, 0xFFu); // Only the low 4 bits may land.
    EXPECT_EQ(v.extract(4, 4), 0xFu);
    EXPECT_FALSE(v.get(8));
    EXPECT_FALSE(v.get(3));
}

TEST(BitVector, EqualityIncludesLength)
{
    BitVector a(10);
    BitVector b(10);
    EXPECT_EQ(a, b);
    b.set(7, true);
    EXPECT_NE(a, b);
    b.set(7, false);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, BitVector(11));
}

TEST(BitVector, RandomizeKeepsTailClear)
{
    Random rng(7);
    BitVector v(70); // 6 tail bits in the second word must stay zero.
    v.randomize(rng);
    std::size_t manual = 0;
    for (std::size_t i = 0; i < v.size(); ++i)
        manual += v.get(i);
    EXPECT_EQ(manual, v.popcount());
    // Roughly half the bits should be set; bound loosely.
    EXPECT_GT(v.popcount(), 15u);
    EXPECT_LT(v.popcount(), 55u);
}

TEST(BitVector, CopyFromMatchesBitLoop)
{
    Random rng(14);
    // Aligned, misaligned, and cross-word spans, including a span
    // wider than one word with both endpoints off word boundaries.
    struct Span { std::size_t srcLo, dstLo, n; };
    const Span spans[] = {
        {0, 0, 64}, {0, 64, 64}, {3, 0, 61}, {0, 3, 61},
        {7, 13, 150}, {61, 1, 5}, {60, 124, 70}, {0, 0, 1},
    };
    for (const Span &span : spans) {
        BitVector src(256);
        src.randomize(rng);
        BitVector expect(256);
        expect.randomize(rng);
        BitVector dst = expect;
        for (std::size_t i = 0; i < span.n; ++i)
            expect.set(span.dstLo + i, src.get(span.srcLo + i));
        dst.copyFrom(src, span.srcLo, span.dstLo, span.n);
        EXPECT_EQ(dst, expect)
            << "src " << span.srcLo << " dst " << span.dstLo
            << " n " << span.n;
    }
}

} // namespace
} // namespace pcmscrub
