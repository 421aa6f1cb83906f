/**
 * @file
 * Tests for cyclotomic cosets, minimal polynomials, and BCH
 * generator polynomials against textbook values (Lin & Costello).
 */

#include <gtest/gtest.h>

#include "gf/gf2m.hh"
#include "gf/minpoly.hh"

namespace pcmscrub {
namespace {

TEST(CyclotomicCoset, KnownCosetsModulo15)
{
    const GF2m f(4);
    const auto c1 = cyclotomicCoset(f, 1);
    EXPECT_EQ(c1, (std::vector<std::uint32_t>{1, 2, 4, 8}));
    const auto c3 = cyclotomicCoset(f, 3);
    EXPECT_EQ(c3, (std::vector<std::uint32_t>{3, 6, 9, 12}));
    const auto c5 = cyclotomicCoset(f, 5);
    EXPECT_EQ(c5, (std::vector<std::uint32_t>{5, 10}));
    const auto c7 = cyclotomicCoset(f, 7);
    EXPECT_EQ(c7, (std::vector<std::uint32_t>{7, 11, 13, 14}));
}

TEST(MinimalPolynomial, GF16TextbookTable)
{
    const GF2m f(4);
    // Minimal polynomials over GF(16) (Lin & Costello Table 2.9):
    EXPECT_EQ(minimalPolynomial(f, 1), BinPoly::fromBits(0b10011));
    EXPECT_EQ(minimalPolynomial(f, 3), BinPoly::fromBits(0b11111));
    EXPECT_EQ(minimalPolynomial(f, 5), BinPoly::fromBits(0b111));
    EXPECT_EQ(minimalPolynomial(f, 7), BinPoly::fromBits(0b11001));
}

TEST(MinimalPolynomial, RootsAreExactlyTheCoset)
{
    const GF2m f(6);
    const auto coset = cyclotomicCoset(f, 5);
    const BinPoly mp = minimalPolynomial(f, 5);
    // Evaluate the binary polynomial at every field element.
    unsigned roots = 0;
    for (std::uint32_t e = 0; e < f.order(); ++e) {
        GfElem acc = 0;
        for (int i = mp.degree(); i >= 0; --i) {
            acc = f.mul(acc, f.alphaPow(e));
            if (mp.coeff(static_cast<unsigned>(i)))
                acc ^= 1;
        }
        const bool isRoot = acc == 0;
        const bool inCoset = std::find(coset.begin(), coset.end(), e) !=
            coset.end();
        EXPECT_EQ(isRoot, inCoset) << "exponent " << e;
        roots += isRoot;
    }
    EXPECT_EQ(roots, coset.size());
}

TEST(BchGenerator, ClassicBCH15Codes)
{
    const GF2m f(4);
    // (15, 11) t=1: g = x^4 + x + 1.
    EXPECT_EQ(bchGenerator(f, 1), BinPoly::fromBits(0b10011));
    // (15, 7) t=2: g = x^8 + x^7 + x^6 + x^4 + 1.
    EXPECT_EQ(bchGenerator(f, 2), BinPoly::fromBits(0b111010001));
    // (15, 5) t=3: g = x^10 + x^8 + x^5 + x^4 + x^2 + x + 1.
    EXPECT_EQ(bchGenerator(f, 3), BinPoly::fromBits(0b10100110111));
}

TEST(BchGenerator, DegreeBoundedByMT)
{
    const GF2m f(10);
    for (unsigned t = 1; t <= 8; ++t) {
        const BinPoly g = bchGenerator(f, t);
        EXPECT_LE(g.degree(), static_cast<int>(10 * t)) << "t=" << t;
        EXPECT_GE(g.degree(), static_cast<int>(t)) << "t=" << t;
        // Generator must divide x^n - 1 (i.e. x^n mod g == 1 mod g).
        BinPoly xn = BinPoly::monomial(f.order());
        xn.setCoeff(0, true);
        EXPECT_TRUE(xn.mod(g).isZero()) << "t=" << t;
    }
}

TEST(BchGenerator, GeneratorsNestWithIncreasingT)
{
    // g_t divides g_{t+1}: stronger codes add factors.
    const GF2m f(8);
    BinPoly prev = bchGenerator(f, 1);
    for (unsigned t = 2; t <= 6; ++t) {
        const BinPoly g = bchGenerator(f, t);
        EXPECT_TRUE(g.mod(prev).isZero()) << "t=" << t;
        prev = g;
    }
}

} // namespace
} // namespace pcmscrub
