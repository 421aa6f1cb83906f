/**
 * @file
 * Tests for memory geometry and address mapping.
 */

#include <set>

#include <gtest/gtest.h>

#include "mem/geometry.hh"

namespace pcmscrub {
namespace {

TEST(MemGeometry, TotalsMultiplyOut)
{
    const MemGeometry geo(2, 4, 1024, 8);
    EXPECT_EQ(geo.totalBanks(), 8u);
    EXPECT_EQ(geo.totalLines(), 2ull * 4 * 1024 * 8);
}

TEST(MemGeometry, SequentialLinesInterleaveAcrossChannels)
{
    const MemGeometry geo(4, 2, 16, 4);
    for (LineIndex line = 0; line + 1 < 32; ++line) {
        const auto a = geo.locate(line);
        const auto b = geo.locate(line + 1);
        EXPECT_EQ(b.channel, (a.channel + 1) % 4) << "line " << line;
    }
}

TEST(MemGeometry, SequentialLinesSpreadOverAllBanks)
{
    const MemGeometry geo(2, 4, 16, 4);
    std::set<unsigned> banks;
    for (LineIndex line = 0; line < geo.totalBanks(); ++line)
        banks.insert(geo.bankOf(line));
    EXPECT_EQ(banks.size(), geo.totalBanks());
}

TEST(MemGeometry, BankOfConsistentWithLocate)
{
    const MemGeometry geo(3, 5, 7, 2);
    for (LineIndex line = 0; line < geo.totalLines(); ++line) {
        const auto loc = geo.locate(line);
        EXPECT_EQ(geo.bankOf(line),
                  loc.channel * geo.banksPerChannel() + loc.bank);
    }
}

TEST(MemGeometry, FieldsStayInRange)
{
    const MemGeometry geo(2, 3, 10, 4);
    for (LineIndex line = 0; line < geo.totalLines(); ++line) {
        const auto loc = geo.locate(line);
        EXPECT_LT(loc.channel, 2u);
        EXPECT_LT(loc.bank, 3u);
        EXPECT_LT(loc.row, 10u);
        EXPECT_LT(loc.offset, 4u);
    }
}

TEST(MemGeometryDeath, ZeroDimensionIsFatal)
{
    EXPECT_EXIT(MemGeometry(0, 1, 1, 1), ::testing::ExitedWithCode(1),
                "positive");
    EXPECT_EXIT(MemGeometry(1, 1, 0, 1), ::testing::ExitedWithCode(1),
                "positive");
}

TEST(MemGeometryDeath, OutOfRangeLinePanics)
{
    const MemGeometry geo(1, 1, 2, 2);
    EXPECT_DEATH(geo.locate(4), "out of range");
}

} // namespace
} // namespace pcmscrub
