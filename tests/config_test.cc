/**
 * @file
 * Tests for the INI-style configuration registry.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/config.hh"

namespace pcmscrub {
namespace {

TEST(Config, ParsesSectionsAndTypes)
{
    const ConfigFile config = ConfigFile::parse(R"(
# device knobs
[device]
sigma_log_r = 0.07
endurance_median = 1e8
lines = 4096

[policy]
kind = combined
piggyback = true
; alt comment style
headroom = 0x2
)");
    EXPECT_TRUE(config.has("device.sigma_log_r"));
    EXPECT_FALSE(config.has("device.nonexistent"));
    EXPECT_DOUBLE_EQ(config.getDouble("device.sigma_log_r", 0.0),
                     0.07);
    EXPECT_DOUBLE_EQ(config.getDouble("device.endurance_median", 0.0),
                     1e8);
    EXPECT_EQ(config.getInt("device.lines", 0), 4096u);
    EXPECT_EQ(config.getString("policy.kind", "basic"), "combined");
    EXPECT_TRUE(config.getBool("policy.piggyback", false));
    EXPECT_EQ(config.getInt("policy.headroom", 0), 2u); // 0x prefix.
}

TEST(Config, FallbacksForMissingKeys)
{
    const ConfigFile config = ConfigFile::parse("[a]\nx = 1\n");
    EXPECT_EQ(config.getString("a.y", "def"), "def");
    EXPECT_DOUBLE_EQ(config.getDouble("a.y", 2.5), 2.5);
    EXPECT_EQ(config.getInt("a.y", 7), 7u);
    EXPECT_FALSE(config.getBool("a.y", false));
}

TEST(Config, SectionlessKeysWork)
{
    const ConfigFile config = ConfigFile::parse("answer = 42\n");
    EXPECT_EQ(config.getInt("answer", 0), 42u);
}

TEST(Config, UnusedKeyTracking)
{
    const ConfigFile config =
        ConfigFile::parse("[s]\nused = 1\ntypo_key = 2\n");
    config.getInt("s.used", 0);
    const auto unused = config.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "s.typo_key");
}

TEST(Config, LoadFromFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "pcmscrub_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "." + std::to_string(::getpid()) + ".ini";
    {
        std::ofstream out(path);
        out << "[run]\ndays = 14\nworkload = zipf\n";
    }
    const ConfigFile config = ConfigFile::load(path);
    EXPECT_EQ(config.getInt("run.days", 0), 14u);
    EXPECT_EQ(config.getString("run.workload", ""), "zipf");
    std::remove(path.c_str());
}

TEST(ConfigDeath, MalformedInputIsFatal)
{
    EXPECT_EXIT(ConfigFile::parse("[unclosed\n"),
                ::testing::ExitedWithCode(1), "malformed section");
    EXPECT_EXIT(ConfigFile::parse("no equals sign\n"),
                ::testing::ExitedWithCode(1), "expected");
    EXPECT_EXIT(ConfigFile::parse("= naked value\n"),
                ::testing::ExitedWithCode(1), "empty key");
    EXPECT_EXIT(ConfigFile::parse("[a]\nx = 1\nx = 2\n"),
                ::testing::ExitedWithCode(1), "duplicate");
    EXPECT_EXIT(ConfigFile::load("/no/such/file.ini"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(ConfigDeath, BadTypedValuesAreFatal)
{
    const ConfigFile config =
        ConfigFile::parse("[s]\nnum = banana\nflag = maybe\n");
    EXPECT_EXIT(config.getDouble("s.num", 0.0),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(config.getInt("s.num", 0),
                ::testing::ExitedWithCode(1), "not an integer");
    EXPECT_EXIT(config.getBool("s.flag", false),
                ::testing::ExitedWithCode(1), "not a boolean");
}

} // namespace
} // namespace pcmscrub
