/**
 * @file
 * Tests for analytic ECC semantics, cross-checked against the real
 * codecs they model.
 */

#include <gtest/gtest.h>

#include "scrub/ecc_scheme.hh"

namespace pcmscrub {
namespace {

TEST(EccScheme, NamesAndStrengths)
{
    EXPECT_EQ(EccScheme::secdedX8().name(), "8xSECDED");
    EXPECT_EQ(EccScheme::secdedX8().guaranteedT(), 1u);
    EXPECT_EQ(EccScheme::bch(8).name(), "BCH-8");
    EXPECT_EQ(EccScheme::bch(8).guaranteedT(), 8u);
}

TEST(EccScheme, CheckBitsMatchRealCodecs)
{
    // 8 x (72,64) adds 64 bits; BCH-t over GF(2^10) adds 10t.
    EXPECT_EQ(EccScheme::secdedX8().checkBits(), 64u);
    EXPECT_EQ(EccScheme::bch(1).checkBits(), 10u);
    EXPECT_EQ(EccScheme::bch(8).checkBits(), 80u);
}

TEST(EccScheme, BchUncorrectableIsDeterministicThreshold)
{
    const EccScheme scheme = EccScheme::bch(4);
    for (unsigned e = 0; e <= 4; ++e)
        EXPECT_EQ(scheme.uncorrectableProb(e), 0.0) << "e=" << e;
    for (unsigned e = 5; e <= 12; ++e)
        EXPECT_EQ(scheme.uncorrectableProb(e), 1.0) << "e=" << e;
}

TEST(EccScheme, SecdedProbMatchesBirthdayFormula)
{
    const EccScheme scheme = EccScheme::secdedX8();
    EXPECT_EQ(scheme.uncorrectableProb(0), 0.0);
    EXPECT_EQ(scheme.uncorrectableProb(1), 0.0);
    // Two errors in distinct slices survive: 7/8.
    EXPECT_NEAR(scheme.uncorrectableProb(2), 1.0 / 8.0, 1e-12);
    // Three errors: survive with (7/8)(6/8).
    EXPECT_NEAR(scheme.uncorrectableProb(3),
                1.0 - (7.0 / 8.0) * (6.0 / 8.0), 1e-12);
    // Five errors: 8*7*6*5*4 of the 8^5 placements survive.
    EXPECT_NEAR(scheme.uncorrectableProb(5), 1.0 - 6720.0 / 32768.0,
                1e-12);
    // Pigeonhole beyond 8.
    EXPECT_EQ(scheme.uncorrectableProb(9), 1.0);
}

TEST(EccScheme, ProbMonotoneInErrors)
{
    const EccScheme scheme = EccScheme::secdedX8();
    double prev = 0.0;
    for (unsigned e = 0; e <= 10; ++e) {
        const double p = scheme.uncorrectableProb(e);
        EXPECT_GE(p, prev) << "e=" << e;
        prev = p;
    }
}

TEST(EccScheme, EnergyModelHooks)
{
    const DeviceConfig config;
    const EccScheme secded = EccScheme::secdedX8();
    const EccScheme bch = EccScheme::bch(8);
    EXPECT_FALSE(secded.hasCheapCheck());
    EXPECT_TRUE(bch.hasCheapCheck());
    EXPECT_EQ(secded.checkEnergy(config), secded.fullDecodeEnergy(config));
    EXPECT_LT(bch.checkEnergy(config), bch.fullDecodeEnergy(config));
}

} // namespace
} // namespace pcmscrub
