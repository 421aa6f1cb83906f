/**
 * @file
 * Array-scaling microbenchmark: cell-accurate backends from 16k to
 * 4M lines, reporting warm-up (construction + initial array write)
 * and steady-state sweep throughput separately, bytes per line, and
 * peak RSS per point. This is the capacity story of the quantized
 * SoA cell storage — the JSON shows whether 10^6-10^7-line arrays
 * fit comfortably and how throughput scales with array size. Writes
 * BENCH_micro_scale.json (pass a different path as the positional
 * argument).
 *
 *   micro_scale [out.json] [--seed N] [--threads N] [--no-simd]
 *               [--lines N] [--sweeps N]
 *
 * --lines pins a single point instead of the default ascending sweep
 * (ascending order keeps each point's peak-RSS reading meaningful:
 * the process high-water mark is always set by the current, largest
 * array). The default series runs through the 10^7-line point behind
 * a host-aware RSS projection gate — max(4 GiB, 80% of
 * /proc/meminfo MemAvailable) — so the big point runs where it fits
 * and is skipped with a machine-readable notice (never silently)
 * where it does not. --sweeps sets scrub sweeps per point
 * (default 4).
 *
 * Each point also records the scrub work behind its steady rate
 * (light detects, full decodes, rewrites, decodes/s) and the
 * backend's config_fingerprint. A pinned small point is the sweep
 * microbenchmark of the scrub inner loop: `--lines 4096 --sweeps 24`
 * is the mostly-clean case (about 3% of visits decode) and
 * `--lines 2048 --sweeps 96` the error-heavy one.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "common/cli.hh"
#include "scrub/cell_backend.hh"
#include "scrub/policy.hh"
#include "scrub/sweep_scrub.hh"

using namespace pcmscrub;

int
main(int argc, char **argv)
{
    const char *positional = nullptr;
    const CliOptions opts = parseCliOptions(argc, argv, 7, &positional);
    const std::string path =
        positional != nullptr ? positional : "BENCH_micro_scale.json";

    std::vector<std::uint64_t> points = {16384,   65536,   262144,
                                         1048576, 4194304, 10000000};
    // Explicit --lines overrides the sweep and its RSS gate: probing
    // past the budget is the caller's deliberate choice.
    bool rssGated = true;
    if (opts.lines != 0) {
        points = {opts.lines};
        rssGated = false;
    }
    // Budget for the *projected* next point, estimated from the
    // previous point's measured bytes/line. Host-aware: 80% of what
    // the kernel says is available, floored at 4 GiB so the series
    // is comparable across hosts; the floor alone (the fallback when
    // /proc/meminfo is unreadable) still admits every point through
    // 4M lines, while the 10^7-line point (~8 GiB peak) runs exactly
    // where it fits.
    constexpr double rssFloorBytes = 4.0 * 1024.0 * 1024.0 * 1024.0;
    const double hostBudgetBytes = 0.8 *
        static_cast<double>(bench::availableMemoryBytes());
    const double rssBudgetBytes = hostBudgetBytes > rssFloorBytes
        ? hostBudgetBytes
        : rssFloorBytes;
    double lastBytesPerLine = 0.0;
    const std::uint64_t sweeps = opts.sweeps != 0 ? opts.sweeps : 4;
    const Tick interval = secondsToTicks(300.0);
    const Tick horizon = interval * sweeps;

    bench::JsonArray pointArray;
    bench::JsonArray skippedArray;
    for (const std::uint64_t lines : points) {
        if (rssGated && lastBytesPerLine > 0.0 &&
            lastBytesPerLine * static_cast<double>(lines) >
                rssBudgetBytes) {
            const double projectedGib =
                lastBytesPerLine * static_cast<double>(lines) /
                (1024.0 * 1024.0 * 1024.0);
            std::printf("micro_scale: %8llu lines: skipped "
                        "(projected %.2f GiB exceeds the %.0f GiB "
                        "RSS budget)\n",
                        static_cast<unsigned long long>(lines),
                        projectedGib,
                        rssBudgetBytes / (1024.0 * 1024.0 * 1024.0));
            // Machine-readable skip record, so bench_diff.py can
            // tell an RSS-gated point apart from one that is simply
            // missing from the run.
            bench::JsonObject skip;
            skip.u64("lines", lines)
                .str("reason", "rss_budget")
                .num("projected_gib", projectedGib);
            skippedArray.pushRaw(skip.render());
            continue;
        }
        CellBackendConfig config;
        config.lines = lines;
        config.scheme = EccScheme::bch(8);
        config.seed = opts.seed;

        const auto buildStart = std::chrono::steady_clock::now();
        auto backend = std::make_unique<CellBackend>(config);
        const auto buildStop = std::chrono::steady_clock::now();
        const double warmup =
            std::chrono::duration<double>(buildStop - buildStart)
                .count();

        LightDetectScrub policy(interval);
        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t wakes = runScrub(*backend, policy, horizon);
        const auto stop = std::chrono::steady_clock::now();
        const double wall =
            std::chrono::duration<double>(stop - start).count();

        const ScrubMetrics &metrics = backend->metrics();
        // Warm-up covers construction plus the initial full-array
        // write (one line programmed per array line); the steady
        // rate covers only the scrub sweeps. The two regimes have
        // very different costs, so the JSON reports each lines/s
        // separately instead of letting construction time pollute
        // the sweep throughput (or vice versa).
        const double warmupLinesPerSecond =
            static_cast<double>(lines) / warmup;
        const double steadyLinesPerSecond =
            static_cast<double>(metrics.linesChecked) / wall;
        const double decodesPerSecond =
            static_cast<double>(metrics.fullDecodes) / wall;
        const double bytesPerLine =
            static_cast<double>(backend->arrayView().storageBytes()) /
            static_cast<double>(lines);
        const std::uint64_t rss = bench::peakRssBytes();
        char fingerprint[32];
        std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                      static_cast<unsigned long long>(
                          backend->checkpointFingerprint()));

        bench::JsonObject point;
        point.u64("lines", lines)
            .u64("sweeps", wakes)
            .num("warmup_seconds", warmup)
            .num("warmup_lines_per_second", warmupLinesPerSecond)
            .num("wall_seconds", wall)
            .u64("lines_checked", metrics.linesChecked)
            .u64("light_detects", metrics.lightDetects)
            .u64("full_decodes", metrics.fullDecodes)
            .u64("scrub_rewrites", metrics.scrubRewrites)
            .num("steady_lines_per_second", steadyLinesPerSecond)
            .num("lines_per_second", steadyLinesPerSecond)
            .num("decodes_per_second", decodesPerSecond)
            .num("bytes_per_line", bytesPerLine)
            .u64("peak_rss_bytes", rss)
            .str("config_fingerprint", fingerprint);
        pointArray.pushRaw(point.render());

        std::printf("micro_scale: %8llu lines: warmup %.3f s "
                    "(%.0f lines/s), %llu sweeps in %.3f s "
                    "(%.0f lines/s, %.1f bytes/line, "
                    "peak RSS %.1f MiB)\n",
                    static_cast<unsigned long long>(lines), warmup,
                    warmupLinesPerSecond,
                    static_cast<unsigned long long>(wakes), wall,
                    steadyLinesPerSecond, bytesPerLine,
                    static_cast<double>(rss) / (1024.0 * 1024.0));
        lastBytesPerLine = bytesPerLine;
    }

    bench::JsonObject json;
    json.str("name", "micro_scale")
        .u64("seed", opts.seed)
        .u64("threads", opts.threads)
        .str("scheme", "bch-8")
        .u64("sweeps_per_point", sweeps)
        .raw("points", pointArray.render())
        .raw("skipped_points", skippedArray.render());
    bench::writeJsonFile(path, json);

    std::printf("micro_scale: wrote %s\n", path.c_str());
    return 0;
}
