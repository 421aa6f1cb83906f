/**
 * @file
 * Field-axiom and known-value tests for GF(2^m).
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "gf/gf2m.hh"

namespace pcmscrub {
namespace {

TEST(GF2m, OrderAndSize)
{
    const GF2m f(4);
    EXPECT_EQ(f.m(), 4u);
    EXPECT_EQ(f.order(), 15u);
    EXPECT_EQ(f.size(), 16u);
    EXPECT_EQ(f.primitivePoly(), 0x13u);
}

TEST(GF2m, AlphaPowersForGF16)
{
    // GF(16) with x^4 + x + 1: alpha^4 = alpha + 1 = 0b0011.
    const GF2m f(4);
    EXPECT_EQ(f.alphaPow(0), 1u);
    EXPECT_EQ(f.alphaPow(1), 2u);
    EXPECT_EQ(f.alphaPow(4), 3u);
    EXPECT_EQ(f.alphaPow(15), 1u); // Full cycle.
}

TEST(GF2m, LogIsInverseOfAlphaPow)
{
    const GF2m f(8);
    for (std::uint32_t e = 0; e < f.order(); ++e)
        EXPECT_EQ(f.log(f.alphaPow(e)), e);
}

TEST(GF2m, MultiplicationAgainstKnownGF16Table)
{
    const GF2m f(4);
    // 0b0110 * 0b0111 in GF(16)/(x^4+x+1):
    // (x^2+x)(x^2+x+1) = x^4+x = (x+1)+x = 1.
    EXPECT_EQ(f.mul(0x6, 0x7), 0x1u);
    EXPECT_EQ(f.mul(0x0, 0x9), 0x0u);
    EXPECT_EQ(f.mul(0x1, 0x9), 0x9u);
}

TEST(GF2m, FieldAxiomsHoldOnRandomElements)
{
    const GF2m f(10);
    Random rng(3);
    for (int i = 0; i < 2000; ++i) {
        const GfElem a = static_cast<GfElem>(rng.uniformInt(f.size()));
        const GfElem b = static_cast<GfElem>(rng.uniformInt(f.size()));
        const GfElem c = static_cast<GfElem>(rng.uniformInt(f.size()));
        // Commutativity and associativity of mul.
        EXPECT_EQ(f.mul(a, b), f.mul(b, a));
        EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        // Distributivity over xor-addition.
        EXPECT_EQ(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
    }
}

TEST(GF2m, InverseAndDivision)
{
    const GF2m f(6);
    for (GfElem a = 1; a <= f.order(); ++a) {
        EXPECT_EQ(f.mul(a, f.inv(a)), 1u) << "a=" << a;
        EXPECT_EQ(f.div(a, a), 1u);
        EXPECT_EQ(f.div(0, a), 0u);
    }
}

TEST(GF2m, AllSupportedDegreesConstruct)
{
    for (unsigned m = 2; m <= 14; ++m) {
        const GF2m f(m);
        EXPECT_EQ(f.order(), (1u << m) - 1);
        // Primitivity is asserted inside the constructor; touching
        // a few products exercises the tables.
        EXPECT_EQ(f.mul(f.alphaPow(1), f.alphaPow(f.order() - 1)), 1u);
    }
}

TEST(GF2mDeath, RejectsUnsupportedDegree)
{
    EXPECT_EXIT(GF2m(1), ::testing::ExitedWithCode(1), "supported");
    EXPECT_EXIT(GF2m(15), ::testing::ExitedWithCode(1), "supported");
}

TEST(GF2mDeath, DivisionByZeroPanics)
{
    const GF2m f(4);
    EXPECT_DEATH(f.div(3, 0), "division by zero");
    EXPECT_DEATH(f.inv(0), "inverse of zero");
}

} // namespace
} // namespace pcmscrub
