/**
 * @file
 * Tests for polynomials over GF(2^m).
 */

#include <gtest/gtest.h>

#include "gf/gf2m.hh"
#include "gf/gfpoly.hh"

namespace pcmscrub {
namespace {

TEST(GfPoly, ConstantsAndDegree)
{
    EXPECT_TRUE(GfPoly().isZero());
    EXPECT_EQ(GfPoly().degree(), -1);
    const GfPoly c = GfPoly::constant(5);
    EXPECT_EQ(c.degree(), 0);
    EXPECT_EQ(c.coeff(0), 5u);
    EXPECT_TRUE(GfPoly::constant(0).isZero());
}

TEST(GfPoly, MulAgainstHandComputation)
{
    const GF2m f(4);
    // (x + 1) * (x + 2) = x^2 + 3x + 2 over GF(16).
    GfPoly a;
    a.setCoeff(1, 1);
    a.setCoeff(0, 1);
    GfPoly b;
    b.setCoeff(1, 1);
    b.setCoeff(0, 2);
    const GfPoly prod = a.mul(f, b);
    EXPECT_EQ(prod.degree(), 2);
    EXPECT_EQ(prod.coeff(2), 1u);
    EXPECT_EQ(prod.coeff(1), 3u);
    EXPECT_EQ(prod.coeff(0), 2u);
}

} // namespace
} // namespace pcmscrub
