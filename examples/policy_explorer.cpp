/**
 * @file
 * Policy explorer: run any scrub configuration from the command
 * line. The full configuration surface of the library in one tool —
 * useful for reproducing individual experiment rows or trying
 * parameter combinations the benches don't sweep.
 *
 * Usage:
 *   policy_explorer [options]
 *     --config FILE              load an INI config (see
 *                                examples/configs/); command-line
 *                                options override it
 *     --policy basic|strong_ecc|light_detect|threshold|adaptive|
 *              combined          (default combined)
 *     --ecc secded|bchN          (default bch8)
 *     --interval-s S             sweep interval (default 3600)
 *     --threshold K              rewrite at K errors (default 6)
 *     --target P                 adaptive UE target (default 1e-7)
 *     --region N                 lines per region (default 64)
 *     --lines N                  sampled lines (default 4096)
 *     --days D                   horizon (default 14)
 *     --write-rate R             writes/line/s (default 1e-5)
 *     --read-rate R              reads/line/s (default 1e-4)
 *     --workload uniform|zipf|streaming|write_burst
 *     --speed-sigma S            intrinsic drift spread (default .25)
 *     --detector parity|crc       light-detector family
 *     --detector-bits N           detector width (default 16)
 *     --ecp N                     ECP entries per line (default 0)
 *     --piggyback T               refresh when a demand read sees
 *                                 >= T errors (default off)
 *     --seed N
 *     --threads N                 worker threads (results are
 *                                 bit-identical at any count)
 *     --telemetry PATH            RAS telemetry JSONL (with [ras])
 *     --checkpoint PATH           snapshot file for crash-safe runs
 *     --checkpoint-every H        periodic snapshot cadence, in
 *                                 simulated hours
 *     --resume PATH               continue from an earlier snapshot
 *
 * Example — the paper's baseline:
 *   policy_explorer --policy basic --ecc secded --interval-s 3600
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <memory>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "ras/controlled_scrub.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/factory.hh"
#include "scrub/run_config.hh"
#include "snapshot/checkpoint.hh"

using namespace pcmscrub;

int
main(int argc, char **argv)
{
    AnalyticRunConfig run;
    run.policy.kind = PolicyKind::Combined;
    run.policy.interval = secondsToTicks(3600.0);
    run.policy.rewriteThreshold = 6;
    run.policy.rewriteHeadroom = 2;
    run.policy.targetLineUeProb = 1e-7;
    run.policy.linesPerRegion = 64;
    run.backend.lines = 4096;
    run.backend.scheme = EccScheme::bch(8);
    run.backend.demand.writesPerLinePerSecond = 1e-5;
    run.backend.demand.readsPerLinePerSecond = 1e-4;
    run.days = 14.0;
    run.threads = 1;

    // First pass: apply a config file, if any, so that explicit
    // command-line options can override its values.
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) != "--config")
            continue;
        run = loadRunConfig(argv[i + 1], run);
        ThreadPool::global().resize(run.threads);
    }

    PolicySpec &spec = run.policy;
    AnalyticConfig &config = run.backend;
    double &days = run.days;
    CliOptions checkpointOpts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("option %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--config") {
            ++i; // Already applied in the first pass.
        } else if (arg == "--policy") {
            spec.kind = policyKindFromName(value());
        } else if (arg == "--ecc") {
            config.scheme = eccSchemeFromName(value());
        } else if (arg == "--interval-s") {
            spec.interval = secondsToTicks(std::atof(value()));
        } else if (arg == "--threshold") {
            spec.rewriteThreshold =
                static_cast<unsigned>(std::atoi(value()));
            if (config.scheme.guaranteedT() >= spec.rewriteThreshold) {
                spec.rewriteHeadroom = config.scheme.guaranteedT() -
                    spec.rewriteThreshold;
            }
        } else if (arg == "--target") {
            spec.targetLineUeProb = std::atof(value());
        } else if (arg == "--region") {
            spec.linesPerRegion =
                static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--lines") {
            config.lines =
                static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--days") {
            days = std::atof(value());
        } else if (arg == "--write-rate") {
            config.demand.writesPerLinePerSecond = std::atof(value());
        } else if (arg == "--read-rate") {
            config.demand.readsPerLinePerSecond = std::atof(value());
        } else if (arg == "--workload") {
            const std::string kind = value();
            if (kind == "uniform")
                config.demand.kind = WorkloadKind::Uniform;
            else if (kind == "zipf")
                config.demand.kind = WorkloadKind::Zipf;
            else if (kind == "streaming")
                config.demand.kind = WorkloadKind::Streaming;
            else if (kind == "write_burst")
                config.demand.kind = WorkloadKind::WriteBurst;
            else
                fatal("unknown workload '%s'", kind.c_str());
        } else if (arg == "--speed-sigma") {
            config.device.driftSpeedSigmaLn = std::atof(value());
        } else if (arg == "--detector") {
            const std::string kind = value();
            if (kind == "parity")
                config.detectorKind = DetectorKind::InterleavedParity;
            else if (kind == "crc")
                config.detectorKind = DetectorKind::Crc;
            else
                fatal("unknown detector '%s'", kind.c_str());
        } else if (arg == "--detector-bits") {
            config.detectorParity =
                static_cast<unsigned>(std::atoi(value()));
        } else if (arg == "--ecp") {
            config.ecpEntries =
                static_cast<unsigned>(std::atoi(value()));
        } else if (arg == "--piggyback") {
            config.demandReadPiggyback = true;
            config.piggybackRewriteThreshold =
                static_cast<unsigned>(std::atoi(value()));
        } else if (arg == "--seed") {
            config.seed =
                static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--threads") {
            ThreadPool::global().resize(
                static_cast<unsigned>(std::atoi(value())));
        } else if (arg == "--telemetry") {
            run.ras.telemetryPath = value();
        } else if (arg == "--checkpoint") {
            checkpointOpts.checkpointPath = value();
        } else if (arg == "--checkpoint-every") {
            checkpointOpts.checkpointEverySimHours =
                std::atof(value());
            if (checkpointOpts.checkpointEverySimHours <= 0.0)
                fatal("--checkpoint-every needs a positive sim-hour "
                      "cadence");
        } else if (arg == "--resume") {
            checkpointOpts.resumePath = value();
        } else {
            fatal("unknown option '%s' (see header comment)",
                  arg.c_str());
        }
    }

    if (checkpointOpts.checkpointEverySimHours > 0.0 &&
        checkpointOpts.checkpointPath.empty())
        fatal("--checkpoint-every requires --checkpoint PATH");
    CheckpointRuntime::global().configure(checkpointOpts);

    AnalyticBackend device(config);
    std::unique_ptr<ScrubPolicy> policy = makePolicy(spec, device);

    // [ras] in the config (or --telemetry) turns the plain sweep
    // into the closed-loop control plane: runtime interval bounds,
    // per-region telemetry, and the scrub-rate controller.
    std::unique_ptr<TelemetryLogger> telemetry;
    ControlledScrub *controlled = nullptr;
    if (run.ras.enabled) {
        auto *sweep = dynamic_cast<SweepScrubBase *>(policy.get());
        if (sweep == nullptr)
            fatal("ras.enabled requires a sweep policy (basic, "
                  "strong_ecc, light_detect, threshold, preventive)");
        policy.release();
        if (!run.ras.telemetryPath.empty()) {
            telemetry = std::make_unique<TelemetryLogger>(
                run.ras.telemetryPath);
        }
        auto wrapped = std::make_unique<ControlledScrub>(
            std::unique_ptr<SweepScrubBase>(sweep), device, run.ras,
            /*auto_tune=*/true, "policy_explorer", telemetry.get());
        controlled = wrapped.get();
        policy = std::move(wrapped);
    }

    std::printf("policy=%s ecc=%s lines=%llu days=%.1f workload=%s\n",
                policy->name().c_str(),
                config.scheme.name().c_str(),
                static_cast<unsigned long long>(config.lines), days,
                workloadKindName(config.demand.kind));

    const Tick horizon = secondsToTicks(days * 86400.0);
    const std::uint64_t wakes =
        runCheckpointed(device, *policy, horizon);

    const ScrubMetrics &m = device.metrics();
    std::printf("\nwakes=%llu\n%s\n",
                static_cast<unsigned long long>(wakes),
                m.toString().c_str());
    std::printf("%s\n", m.energy.toString().c_str());
    std::printf("\nper line per day: checks=%.2f rewrites=%.4f\n",
                static_cast<double>(m.linesChecked) / config.lines /
                    days,
                static_cast<double>(m.scrubRewrites) / config.lines /
                    days);
    if (controlled != nullptr) {
        std::printf("ras: final interval %.0f s in [%.0f, %.0f]; "
                    "ppr rows left %llu\n",
                    controlled->controlPlane().scrubIntervalS(),
                    run.ras.minIntervalS, run.ras.maxIntervalS,
                    static_cast<unsigned long long>(
                        device.ppr()->remaining()));
    }
    return 0;
}
