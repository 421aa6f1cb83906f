/**
 * @file
 * Tests for energy accounting and the per-operation cost model.
 */

#include <gtest/gtest.h>

#include "pcm/energy.hh"

namespace pcmscrub {
namespace {

TEST(EnergyAccount, AccumulatesByCategory)
{
    EnergyAccount account;
    account.add(EnergyCategory::ArrayRead, 10.0);
    account.add(EnergyCategory::ArrayRead, 5.0);
    account.add(EnergyCategory::Decode, 2.5);
    EXPECT_DOUBLE_EQ(account.get(EnergyCategory::ArrayRead), 15.0);
    EXPECT_DOUBLE_EQ(account.get(EnergyCategory::Decode), 2.5);
    EXPECT_DOUBLE_EQ(account.get(EnergyCategory::ArrayWrite), 0.0);
    EXPECT_DOUBLE_EQ(account.total(), 17.5);
}

TEST(EnergyAccount, MergeAddsPerCategory)
{
    EnergyAccount a;
    a.add(EnergyCategory::Detect, 1.0);
    EnergyAccount b;
    b.add(EnergyCategory::Detect, 2.0);
    b.add(EnergyCategory::MarginRead, 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get(EnergyCategory::Detect), 3.0);
    EXPECT_DOUBLE_EQ(a.get(EnergyCategory::MarginRead), 4.0);
}

TEST(EnergyAccount, ToStringContainsCategories)
{
    EnergyAccount account;
    account.add(EnergyCategory::ArrayWrite, 7.0);
    const std::string s = account.toString();
    EXPECT_NE(s.find("array_write=7"), std::string::npos);
    EXPECT_NE(s.find("total=7"), std::string::npos);
}

TEST(EnergyAccountDeath, NegativeEnergyPanics)
{
    EnergyAccount account;
    EXPECT_DEATH(account.add(EnergyCategory::Decode, -1.0),
                 "negative energy");
}

TEST(EnergyModel, CostsScaleWithWork)
{
    DeviceConfig config;
    const EnergyModel model(config);
    EXPECT_DOUBLE_EQ(model.lineRead(256),
                     config.readEnergyPerCell * 256);
    EXPECT_DOUBLE_EQ(model.marginReadExtra(256),
                     config.marginReadExtraPerCell * 256);
    EXPECT_DOUBLE_EQ(model.lineWrite(1000),
                     config.programPulseEnergyPerCell * 1000);
}

TEST(EnergyModel, DecodeCostOrdering)
{
    // The relative ordering is what the light-detection result rests
    // on: detect << syndrome check << full decode.
    const EnergyModel model{DeviceConfig{}};
    EXPECT_LT(model.lightDetect(), model.secdedDecode());
    EXPECT_LT(model.secdedDecode(), model.bchCheck());
    EXPECT_LT(model.bchCheck(), model.bchFullDecode());
}

TEST(EnergyCategoryNames, AllDistinct)
{
    const unsigned n =
        static_cast<unsigned>(EnergyCategory::NumCategories);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = i + 1; j < n; ++j) {
            EXPECT_STRNE(
                energyCategoryName(static_cast<EnergyCategory>(i)),
                energyCategoryName(static_cast<EnergyCategory>(j)));
        }
    }
}

} // namespace
} // namespace pcmscrub
