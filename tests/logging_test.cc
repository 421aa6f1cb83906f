/**
 * @file
 * Tests for warn_once, panic/fatal and the assertion macro.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace pcmscrub {
namespace {

TEST(Logging, WarnOnceFiresExactlyOnce)
{
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        warn_once("deduplicated warning %d", i);
    const std::string output =
        ::testing::internal::GetCapturedStderr();

    std::size_t count = 0;
    for (std::size_t pos = output.find("deduplicated warning");
         pos != std::string::npos;
         pos = output.find("deduplicated warning", pos + 1)) {
        ++count;
    }
    EXPECT_EQ(count, 1u);
    // The first call is the one that prints.
    EXPECT_NE(output.find("deduplicated warning 0"),
              std::string::npos);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "panic: boom 42");
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "fatal: bad config x");
}

TEST(LoggingDeath, AssertMacroFiresOnFalse)
{
    EXPECT_DEATH(PCMSCRUB_ASSERT(1 == 2, "math broke %d", 7),
                 "assertion '1 == 2' failed: math broke 7");
}

TEST(Logging, AssertMacroPassesOnTrue)
{
    PCMSCRUB_ASSERT(2 + 2 == 4, "never printed");
    SUCCEED();
}

} // namespace
} // namespace pcmscrub
