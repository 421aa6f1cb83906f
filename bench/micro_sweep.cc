/**
 * @file
 * Cell-backend sweep microbenchmark: the wall-clock cost of scrub
 * epochs over a mostly-clean array. Writes machine-readable BENCH_micro_sweep.json
 * (pass a different path as the positional argument) so the perf
 * trajectory of the hot loop is recorded commit over commit.
 *
 *   micro_sweep [out.json] [--seed N] [--threads N] [--lines N]
 *               [--sweeps N]
 *
 * --lines/--sweeps scale the run (defaults: 4096 lines, 24 sweeps).
 * Warm-up (construction + initial write) and the steady sweep are
 * reported separately (warmup_* vs steady_lines_per_second), like
 * micro_scale.
 */

#include <chrono>
#include <cstdio>
#include <string>

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
        positional != nullptr ? positional : "BENCH_micro_sweep.json";

    // The default mostly-clean configuration: five-minute
    // light-detect sweeps over a BCH-protected array for two
    // simulated hours. At these ages drift errors are rare (~3% of
    // visits decode), so nearly every visit is the clean-line common
    // case whose cost this bench tracks.
    CellBackendConfig config;
    config.lines = opts.lines != 0 ? opts.lines : 4096;
    config.scheme = EccScheme::bch(8);
    config.seed = opts.seed;

    // Warm-up (construction + initial write of every line) and the
    // steady sweep are timed separately, like micro_scale: the two
    // phases stress different kernels (program physics vs sense +
    // decode), so one merged rate would hide a regression in either.
    const auto buildStart = std::chrono::steady_clock::now();
    CellBackend backend(config);
    const auto buildStop = std::chrono::steady_clock::now();
    const double warmup =
        std::chrono::duration<double>(buildStop - buildStart).count();

    const std::uint64_t sweeps = opts.sweeps != 0 ? opts.sweeps : 24;
    const Tick interval = secondsToTicks(300.0);
    const Tick horizon = interval * sweeps;
    LightDetectScrub policy(interval);

    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t wakes = runScrub(backend, policy, horizon);
    const auto stop = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(stop - start).count();

    const ScrubMetrics &metrics = backend.metrics();
    const double warmupLinesPerSecond =
        static_cast<double>(config.lines) / warmup;
    const double linesPerSecond =
        static_cast<double>(metrics.linesChecked) / wall;
    const double decodesPerSecond =
        static_cast<double>(metrics.fullDecodes) / wall;

    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(
                      backend.checkpointFingerprint()));

    bench::JsonObject json;
    json.str("name", "micro_sweep")
        .u64("seed", opts.seed)
        .u64("threads", opts.threads)
        .u64("lines", config.lines)
        .str("scheme", config.scheme.name())
        .u64("sweeps", wakes)
        .num("warmup_seconds", warmup)
        .num("warmup_lines_per_second", warmupLinesPerSecond)
        .num("wall_seconds", wall)
        .u64("lines_checked", metrics.linesChecked)
        .u64("light_detects", metrics.lightDetects)
        .u64("full_decodes", metrics.fullDecodes)
        .u64("scrub_rewrites", metrics.scrubRewrites)
        .num("lines_per_second", linesPerSecond)
        .num("steady_lines_per_second", linesPerSecond)
        .num("decodes_per_second", decodesPerSecond)
        .num("bytes_per_line",
             static_cast<double>(backend.arrayView().storageBytes()) /
                 static_cast<double>(config.lines))
        .u64("peak_rss_bytes", bench::peakRssBytes())
        .str("config_fingerprint", fingerprint);
    bench::writeJsonFile(path, json);

    std::printf("micro_sweep: %llu lines x %llu sweeps: warmup "
                "%.3f s (%.0f lines/s), sweep %.3f s "
                "(%.0f lines/s) -> %s\n",
                static_cast<unsigned long long>(config.lines),
                static_cast<unsigned long long>(wakes), warmup,
                warmupLinesPerSecond, wall, linesPerSecond,
                path.c_str());
    return 0;
}
