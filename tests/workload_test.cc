/**
 * @file
 * Tests for the synthetic workload generators and trace capture.
 */

#include <map>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "sim/trace.hh"
#include "sim/workload.hh"

namespace pcmscrub {
namespace {

TEST(Workload, ArrivalsAreOrderedAtConfiguredRate)
{
    WorkloadConfig config;
    config.requestsPerSecond = 1e6;
    Workload workload(config, 3);
    Tick last = 0;
    const int draws = 50000;
    MemRequest req;
    for (int i = 0; i < draws; ++i) {
        req = workload.next();
        EXPECT_GE(req.arrival, last);
        last = req.arrival;
    }
    // 50k requests at 1M/s should span ~50 ms.
    const double seconds = ticksToSeconds(last);
    EXPECT_NEAR(seconds, 0.05, 0.01);
}

TEST(Workload, ReadFractionIsRespected)
{
    WorkloadConfig config;
    config.readFraction = 0.25;
    Workload workload(config, 4);
    int reads = 0;
    const int draws = 40000;
    for (int i = 0; i < draws; ++i)
        reads += workload.next().type == ReqType::Read;
    EXPECT_NEAR(reads / static_cast<double>(draws), 0.25, 0.02);
}

TEST(Workload, UniformCoversWorkingSet)
{
    WorkloadConfig config;
    config.kind = WorkloadKind::Uniform;
    config.workingSetLines = 16;
    Workload workload(config, 5);
    std::map<LineIndex, int> hits;
    for (int i = 0; i < 16000; ++i)
        ++hits[workload.next().line];
    EXPECT_EQ(hits.size(), 16u);
    for (const auto &[line, count] : hits)
        EXPECT_NEAR(count, 1000, 200) << "line " << line;
}

TEST(Workload, ZipfSkewsTowardHotLines)
{
    WorkloadConfig config;
    config.kind = WorkloadKind::Zipf;
    config.workingSetLines = 10000;
    config.zipfTheta = 0.9;
    Workload workload(config, 6);
    std::uint64_t hotHits = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        hotHits += workload.next().line < 100; // Top 1%.
    EXPECT_GT(hotHits, draws / 5);
}

TEST(Workload, StreamingSweepsSequentially)
{
    WorkloadConfig config;
    config.kind = WorkloadKind::Streaming;
    config.workingSetLines = 8;
    Workload workload(config, 7);
    for (int sweep = 0; sweep < 3; ++sweep) {
        for (LineIndex expect = 0; expect < 8; ++expect)
            EXPECT_EQ(workload.next().line, expect);
    }
}

TEST(Workload, WriteBurstStaysInsideWindow)
{
    WorkloadConfig config;
    config.kind = WorkloadKind::WriteBurst;
    config.workingSetLines = 100000;
    config.burstLines = 64;
    config.burstLength = 1000;
    Workload workload(config, 8);
    // First burst: all requests within one 64-line window.
    const LineIndex first = workload.next().line;
    LineIndex lo = first;
    LineIndex hi = first;
    for (int i = 1; i < 1000; ++i) {
        const LineIndex line = workload.next().line;
        lo = std::min(lo, line);
        hi = std::max(hi, line);
    }
    EXPECT_LT(hi - lo, 64u);
}

TEST(WorkloadDeath, BadConfigIsFatal)
{
    WorkloadConfig config;
    config.requestsPerSecond = 0.0;
    EXPECT_EXIT(Workload{config}, ::testing::ExitedWithCode(1),
                "rate must be positive");
    WorkloadConfig bad2;
    bad2.readFraction = 1.5;
    EXPECT_EXIT(Workload{bad2}, ::testing::ExitedWithCode(1),
                "read fraction");
}

TEST(Trace, CaptureAndStats)
{
    WorkloadConfig config;
    config.readFraction = 0.5;
    Workload workload(config, 9);
    const Trace trace = Trace::capture(workload, 1000);
    EXPECT_EQ(trace.size(), 1000u);
    EXPECT_GT(trace.span(), 0u);
    EXPECT_EQ(trace.countOf(ReqType::Read) +
              trace.countOf(ReqType::Write), 1000u);
}

TEST(Trace, SaveLoadRoundTrip)
{
    WorkloadConfig config;
    Workload workload(config, 10);
    const Trace original = Trace::capture(workload, 200);
    const std::string path = ::testing::TempDir() + "pcmscrub_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "." + std::to_string(::getpid()) + ".txt";
    ASSERT_TRUE(original.save(path));
    const Trace loaded = Trace::load(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].arrival, original[i].arrival);
        EXPECT_EQ(loaded[i].line, original[i].line);
        EXPECT_EQ(loaded[i].type, original[i].type);
    }
    std::remove(path.c_str());
}

TEST(TraceDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(Trace::load("/nonexistent/trace.txt"),
                ::testing::ExitedWithCode(1), "cannot open trace");
}

TEST(TraceDeath, OutOfOrderAppendPanics)
{
    Trace trace;
    MemRequest a;
    a.arrival = 100;
    trace.append(a);
    MemRequest b;
    b.arrival = 50;
    EXPECT_DEATH(trace.append(b), "ordered");
}

} // namespace
} // namespace pcmscrub
