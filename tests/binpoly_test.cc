/**
 * @file
 * Tests for dense binary polynomials.
 */

#include <gtest/gtest.h>

#include "gf/binpoly.hh"

namespace pcmscrub {
namespace {

TEST(BinPoly, ZeroPolynomial)
{
    BinPoly z;
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.degree(), -1);
}

TEST(BinPoly, FromBitsAndDegree)
{
    const BinPoly p = BinPoly::fromBits(0x13); // x^4 + x + 1
    EXPECT_EQ(p.degree(), 4);
    EXPECT_TRUE(p.coeff(0));
    EXPECT_TRUE(p.coeff(1));
    EXPECT_FALSE(p.coeff(2));
    EXPECT_TRUE(p.coeff(4));
}

TEST(BinPoly, MonomialAcrossWordBoundary)
{
    const BinPoly p = BinPoly::monomial(100);
    EXPECT_EQ(p.degree(), 100);
    EXPECT_TRUE(p.coeff(100));
}

TEST(BinPoly, MultiplicationKnownProduct)
{
    // (x + 1)(x^2 + x + 1) = x^3 + 1 over GF(2).
    const BinPoly a = BinPoly::fromBits(0b11);
    const BinPoly b = BinPoly::fromBits(0b111);
    EXPECT_EQ(a * b, BinPoly::fromBits(0b1001));
}

TEST(BinPoly, MultiplicationByZeroAndOne)
{
    const BinPoly p = BinPoly::fromBits(0x35);
    EXPECT_TRUE((p * BinPoly()).isZero());
    EXPECT_EQ(p * BinPoly::fromBits(1), p);
}

TEST(BinPoly, ModByHigherDegreeIsIdentity)
{
    const BinPoly a = BinPoly::fromBits(0b101);
    const BinPoly d = BinPoly::monomial(10);
    EXPECT_EQ(a.mod(d), a);
}

TEST(BinPoly, MultiplicationAcrossManyWords)
{
    // (x^130 + 1)(x^130 + 1) = x^260 + 1 in characteristic 2.
    BinPoly p = BinPoly::monomial(130);
    p.setCoeff(0, true);
    BinPoly expected = BinPoly::monomial(260);
    expected.setCoeff(0, true);
    EXPECT_EQ(p * p, expected);
}

TEST(BinPoly, SetCoeffGrowsAndTrims)
{
    BinPoly p;
    p.setCoeff(200, true);
    EXPECT_EQ(p.degree(), 200);
    p.setCoeff(200, false);
    EXPECT_TRUE(p.isZero());
}

TEST(BinPolyDeath, ModByZeroPanics)
{
    const BinPoly a = BinPoly::fromBits(0b101);
    EXPECT_DEATH(a.mod(BinPoly()), "modulo by zero");
}

} // namespace
} // namespace pcmscrub
