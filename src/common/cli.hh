/**
 * @file
 * Shared command-line knobs for bench figures and examples.
 *
 * Every harness accepts the same flags:
 *
 *   --seed N      base RNG seed; each harness derives its per-object
 *                 seeds from this one value instead of hard-coding them
 *   --threads N   worker-thread count; resizes ThreadPool::global(),
 *                 which the sharded backends schedule on
 *
 *   --checkpoint PATH        snapshot file written at the checkpoint
 *                            cadence and on SIGINT/SIGTERM
 *   --checkpoint-every H     checkpoint cadence in simulated hours
 *                            (requires --checkpoint)
 *   --resume PATH            restore simulation state from a snapshot
 *                            before running
 *
 * Results are bit-identical across --threads values; the knob only
 * changes wall-clock time. A resumed run is bit-identical to the
 * uninterrupted one.
 */

#ifndef PCMSCRUB_COMMON_CLI_HH
#define PCMSCRUB_COMMON_CLI_HH

#include <cstdint>
#include <string>

namespace pcmscrub {

/** Parsed values of the shared harness flags. */
struct CliOptions
{
    std::uint64_t seed = 1;
    unsigned threads = 1;

    /**
     * Simulated-array line count override; 0 = keep the harness's
     * default (so checked-in baselines stay comparable). Harnesses
     * that have no array to size reject the flag.
     */
    std::uint64_t lines = 0;

    /**
     * Scrub-sweep count override; 0 = keep the harness's default.
     * Only meaningful to the sweep-driven bench harnesses.
     */
    std::uint64_t sweeps = 0;

    /** Checkpoint cadence in simulated hours; 0 = only on signals. */
    double checkpointEverySimHours = 0.0;

    /** Snapshot file to write; empty = checkpointing off. */
    std::string checkpointPath;

    /** Snapshot file to restore from; empty = fresh start. */
    std::string resumePath;

    /**
     * Telemetry JSONL file the RAS-aware harnesses append controller
     * samples to; empty = no telemetry log. Harnesses without a RAS
     * control plane reject the flag.
     */
    std::string telemetryPath;

    /**
     * Fleet-device count override; 0 = keep the harness's default.
     * Only meaningful to the fleet harnesses; others reject the flag.
     */
    std::uint64_t devices = 0;

    /**
     * Enable deterministic chaos injection in the fleet harnesses:
     * task kills at wake boundaries, snapshot corruption before
     * resume, simulated allocation failures, and forced deadline
     * overruns. Non-victim devices stay bit-identical to a chaos-free
     * run. Harnesses without a fleet supervisor reject the flag.
     */
    bool chaos = false;

    /**
     * Disable the vectorized (AVX2) sense/margin and BCH kernels
     * and force the scalar reference loops everywhere. Results are
     * bit-identical either way (simd_oracle_test proves it); the
     * flag exists so any surprising result can be re-run against
     * the scalar oracle path.
     */
    bool noSimd = false;

    /** Whether any checkpoint/resume flag was given. */
    bool checkpointingRequested() const
    {
        return !checkpointPath.empty() || !resumePath.empty();
    }
};

/**
 * Parse --seed/--threads (also --seed=N forms and -h/--help) from
 * argv, apply the thread count to ThreadPool::global(), and return
 * the options. Unknown arguments are a fatal() error; --help prints
 * usage and exits 0.
 *
 * @param defaultSeed seed reported/used when --seed is absent, so a
 *        harness keeps its historical default
 */
CliOptions parseCliOptions(int argc, char **argv,
                           std::uint64_t defaultSeed = 1);

/**
 * Variant for harnesses with one optional positional operand (e.g.
 * `full_system [days]`). The first non-flag argument is stored in
 * *positional (left untouched when absent); a second one is a
 * fatal() error, as is any positional when @p positional is null.
 */
CliOptions parseCliOptions(int argc, char **argv,
                           std::uint64_t defaultSeed,
                           const char **positional);

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_CLI_HH
