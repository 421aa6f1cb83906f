/**
 * @file
 * Tests for the result table / CSV writer.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/table.hh"

namespace pcmscrub {
namespace {

TEST(Table, RowsAndCellsAccumulate)
{
    Table t("demo", {"a", "b"});
    EXPECT_EQ(t.rows(), 0u);
    t.row().cell("x").cell(1.5, 1);
    t.row().cell(std::uint64_t{42}).cell(-3);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRoundTrip)
{
    Table t("csv", {"policy", "value"});
    t.row().cell("basic").cellSci(1.25e-7, 2);
    t.row().cell("combined").cell(std::uint64_t{7});

    const std::string path = ::testing::TempDir() + "pcmscrub_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "." + std::to_string(::getpid()) + ".csv";
    ASSERT_TRUE(t.writeCsv(path));

    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "policy,value");
    std::getline(in, line);
    EXPECT_EQ(line.substr(0, 6), "basic,");
    EXPECT_NE(line.find("e-07"), std::string::npos);
    std::getline(in, line);
    EXPECT_EQ(line, "combined,7");
    std::remove(path.c_str());
}

TEST(Table, CsvFailureReturnsFalse)
{
    Table t("x", {"a"});
    t.row().cell("1");
    EXPECT_FALSE(t.writeCsv("/nonexistent-dir/deeply/file.csv"));
}

TEST(Table, PrintDoesNotCrash)
{
    Table t("print", {"col"});
    t.row().cell("value");
    t.print();
    SUCCEED();
}

TEST(TableDeath, TooManyCellsPanics)
{
    Table t("overflow", {"only"});
    t.row().cell("fits");
    EXPECT_DEATH(t.cell("does not"), "too many cells");
}

TEST(TableDeath, CellBeforeRowPanics)
{
    Table t("norow", {"c"});
    EXPECT_DEATH(t.cell("x"), "cell\\(\\) before row\\(\\)");
}

} // namespace
} // namespace pcmscrub
