/**
 * @file
 * The degradation ladder's warnings depend only on the configuration:
 * a run that escalates lines in every shard prints the same warnings
 * at 1 and at 4 worker threads, on both backends. Each run happens in
 * a forked child with its stderr captured, because every warning site
 * prints at most once per process.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "faults/fault_injector.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/factory.hh"
#include "scrub/policy.hh"

namespace pcmscrub {
namespace {

constexpr Tick kDay = secondsToTicks(86400.0);

/**
 * Run `body` in a forked child and return the lines it wrote to
 * stderr, sorted: each warning site prints once, and which site
 * prints first may follow arrival order; what each one says may not.
 */
std::vector<std::string>
stderrLinesOf(const std::function<void()> &body)
{
    int fds[2];
    if (pipe(fds) != 0) {
        ADD_FAILURE() << "pipe() failed";
        return {};
    }
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        dup2(fds[1], STDERR_FILENO);
        body();
        std::fflush(stderr);
        _exit(0);
    }
    close(fds[1]);
    std::string captured;
    char buffer[4096];
    ssize_t got;
    while ((got = read(fds[0], buffer, sizeof buffer)) > 0)
        captured.append(buffer, static_cast<std::size_t>(got));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child failed; stderr:\n" << captured;

    std::vector<std::string> lines;
    std::istringstream in(captured);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

/** A ladder with few repair resources, so every rung runs dry. */
DegradationConfig
scarceLadder()
{
    DegradationConfig deg;
    deg.enabled = true;
    deg.maxRetries = 0;
    deg.pprSpareRows = 4;
    deg.pprUeThreshold = 1;
    deg.spareLines = 8;
    deg.slcFallback = true;
    return deg;
}

/** Hourly full-decode sweeps for a day under `campaign`. */
void
sweepUnderFaults(ScrubBackend &device, const FaultCampaignConfig &campaign)
{
    FaultInjector injector(campaign);
    device.setFaultInjector(&injector);
    PolicySpec spec;
    spec.kind = PolicyKind::Basic;
    spec.interval = secondsToTicks(3600.0);
    const auto policy = makePolicy(spec, device);
    runScrub(device, *policy, kDay);
}

void
analyticLadderRun(unsigned threads)
{
    ThreadPool::global().resize(threads);
    AnalyticConfig config;
    config.lines = 1024;
    config.scheme = EccScheme::bch(4);
    config.seed = 5;
    config.degradation = scarceLadder();
    AnalyticBackend device(config);
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 64.0;
    campaign.disturbFlipsPerRead = 3.0;
    campaign.seed = 41;
    sweepUnderFaults(device, campaign);
}

void
cellLadderRun(unsigned threads)
{
    ThreadPool::global().resize(threads);
    CellBackendConfig config;
    config.lines = 256;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 4;
    config.seed = 5;
    config.degradation = scarceLadder();
    CellBackend device(config);
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 64.0;
    campaign.disturbFlipsPerRead = 3.0;
    campaign.seed = 41;
    sweepUnderFaults(device, campaign);
}

/** Every ladder warning appears. */
void
expectWholeLadder(const std::vector<std::string> &lines)
{
    for (const char *rung :
         {"PPR-remapping chronic lines to spare rows (4 rows configured)",
          "PPR spare rows exhausted in one shard's partition "
          "(4 configured, at most 1 per shard)",
          "retiring failing lines to spares (8 spares configured)",
          "spare pool exhausted in one shard's partition "
          "(8 spares configured, at most 1 per shard)",
          "failing lines fall back to SLC operation",
          "uncorrectable errors surface to the host"}) {
        EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                                [rung](const std::string &line) {
                                    return line.find(rung) !=
                                        std::string::npos;
                                }))
            << "missing warning: " << rung;
    }
}

TEST(LadderWarnings, AnalyticSameAtOneAndFourThreads)
{
    const auto serial = stderrLinesOf([] { analyticLadderRun(1); });
    expectWholeLadder(serial);
    EXPECT_EQ(serial, stderrLinesOf([] { analyticLadderRun(4); }));
}

TEST(LadderWarnings, CellSameAtOneAndFourThreads)
{
    const auto serial = stderrLinesOf([] { cellLadderRun(1); });
    expectWholeLadder(serial);
    EXPECT_EQ(serial, stderrLinesOf([] { cellLadderRun(4); }));
}

} // namespace
} // namespace pcmscrub
