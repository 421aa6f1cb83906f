/**
 * @file
 * Datacenter scenario: size the scrub mechanism for a PCM-based
 * server fleet, then run its RAS control plane closed-loop.
 *
 * Part 1 (fleet sizing): a fleet operator with N terabytes of MLC
 * PCM main memory wants to know, for several candidate scrub
 * configurations: how many machine-check events per year to expect,
 * how much device lifetime scrubbing consumes, and what the scrub
 * power works out to. Each candidate runs over a simulated month of
 * Zipf-skewed traffic on a sampled region and extrapolates to fleet
 * scale.
 *
 * Part 2 (closed loop): a weaker BCH-4 device whose reliability
 * problem is the chronic fast-drifter tail. A line whose weakest
 * cells drift over threshold within one sweep gap re-fails after
 * every rewrite, so how much of the device is "chronic" depends
 * steeply on the scrub interval. Three operating modes face it:
 *
 *   - fixed_relaxed: scrub at the longest interval the control
 *     plane allows. The chronic tail at that gap dwarfs the PPR and
 *     spare-line budgets; once they exhaust, UEs surface all month.
 *   - fixed_tight: scrub at the shortest allowed interval. The tail
 *     is tiny and the SLO holds, but every line is swept around the
 *     clock — an order of magnitude more scrub energy.
 *   - closed_loop: start tight (the safe direction for an unknown
 *     device), let the PPR rung prune the tail, then let the
 *     ScrubRateController relax the interval step by step while
 *     telemetry stays calm, tightening again the moment the UE rate
 *     approaches the SLO.
 *
 * Every mode emits identical JSONL telemetry (--telemetry PATH), and
 * the whole run is kill -9 safe via the usual --checkpoint/--resume
 * flags: controller state, PPR remaps, and telemetry counters all
 * live in the snapshot, so a resumed run is bit-identical.
 *
 *   $ ./datacenter_scrub [fleet_TB] [--seed N] [--threads N]
 *                        [--telemetry ras.jsonl]
 *                        [--checkpoint snap --checkpoint-every 6]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "ras/controlled_scrub.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/factory.hh"
#include "scrub/sweep_scrub.hh"
#include "snapshot/checkpoint.hh"

using namespace pcmscrub;

namespace {

struct Candidate
{
    const char *label;
    EccScheme scheme;
    PolicySpec spec;
};

/** Shared geometry of the closed-loop phase. */
struct RasPhaseConfig
{
    std::uint64_t lines;
    double days;
    std::uint64_t seed;
};

/**
 * The device every RAS mode runs against: BCH-4 MLC PCM whose
 * chronic fast-drifter tail is the reliability problem. How many
 * lines are "chronic" depends steeply on the scrub interval — a line
 * whose weakest cells cross within the sweep gap re-fails after
 * every rewrite until a repair rung moves it to new silicon. At a
 * 30-minute gap that tail is a couple dozen lines; at six hours it
 * is a sizable slice of the device, far beyond any repair budget.
 */
AnalyticConfig
rasDeviceConfig(const RasPhaseConfig &phase)
{
    AnalyticConfig config;
    config.lines = phase.lines;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 2;
    config.demand.kind = WorkloadKind::Zipf;
    config.demand.writesPerLinePerSecond = 1e-5;
    config.demand.readsPerLinePerSecond = 1e-4;
    config.seed = phase.seed;
    config.degradation.enabled = true;
    // PPR-first ladder: a sweep-detected UE fuses the address to a
    // spare row immediately (threshold 1, no retry rung), and the
    // spare-line pool backstops the remap table. Re-reads and ECP
    // re-learning cannot cure a chronically fast-drifting row, so
    // rungs that merely re-try the same silicon are disabled.
    config.degradation.maxRetries = 0;
    config.degradation.ecpRepair = false;
    config.degradation.pprSpareRows = 256;
    config.degradation.pprUeThreshold = 1;
    config.degradation.spareLines = 64;
    config.degradation.slcFallback = false;
    return config;
}

RasSettings
rasSettings()
{
    RasSettings ras;
    ras.enabled = true;
    ras.minIntervalS = 1800.0;      // 30 min floor.
    ras.maxIntervalS = 6.0 * 3600;  // 6 h ceiling.
    ras.sloUePerLineDay = 5e-4;
    ras.writeBudgetPerLineDay = 0.0;
    ras.sampleEveryS = 6.0 * 3600;  // Sample four times a day.
    ras.stepFactor = 2.0;
    ras.hysteresis = 0.3;
    ras.linesPerRegion = 256;
    return ras;
}

/** Outcome of one RAS mode over the month. */
struct RasModeResult
{
    double ueRate = 0.0;        //!< UEs per line-day, whole month.
    double writesLineDay = 0.0; //!< Scrub writes per line-day.
    double energyLineDay = 0.0; //!< Total array energy, pJ/line-day.
    double finalIntervalS = 0.0;
    std::uint64_t pprUsed = 0;
    std::uint64_t retired = 0;
};

RasModeResult
runRasMode(const RasPhaseConfig &phase, const char *label,
           double start_interval_s, bool auto_tune,
           TelemetryLogger *log)
{
    AnalyticBackend device(rasDeviceConfig(phase));

    RasSettings ras = rasSettings();
    ControlledScrub policy(
        std::make_unique<StrongEccScrub>(
            secondsToTicks(start_interval_s)),
        device, ras, auto_tune, label, log);

    const Tick horizon = secondsToTicks(phase.days * 86400.0);
    runCheckpointed(device, policy, horizon);

    const ScrubMetrics &m = device.metrics();
    RasModeResult result;
    const double lineDays =
        static_cast<double>(phase.lines) * phase.days;
    result.ueRate = (static_cast<double>(m.ueSurfaced) +
                     m.demandUncorrectable) /
        lineDays;
    result.writesLineDay =
        static_cast<double>(m.scrubRewrites) / lineDays;
    result.energyLineDay = m.energy.total() / lineDays;
    result.finalIntervalS = policy.controlPlane().scrubIntervalS();
    result.pprUsed = m.uePprRemapped;
    result.retired = m.ueRetired;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *fleetArg = nullptr;
    const CliOptions opt = parseCliOptions(argc, argv, 7, &fleetArg);
    const double fleetTb = fleetArg != nullptr ? std::atof(fleetArg)
                                               : 64.0;
    if (fleetTb <= 0.0)
        fatal("usage: datacenter_scrub [fleet_TB > 0] "
              "[--seed N] [--threads N]");
    CheckpointRuntime::global().configure(opt);

    const std::uint64_t lines = opt.lines != 0 ? opt.lines : 4096;
    constexpr double days = 30.0;
    const Tick horizon = secondsToTicks(days * 86400.0);

    PolicySpec basicHourly;
    basicHourly.kind = PolicyKind::Basic;
    basicHourly.interval = secondsToTicks(3600.0);

    PolicySpec basicDaily = basicHourly;
    basicDaily.interval = secondsToTicks(86400.0);

    PolicySpec threshold;
    threshold.kind = PolicyKind::Threshold;
    threshold.interval = secondsToTicks(3600.0);
    threshold.rewriteThreshold = 6;

    PolicySpec combined;
    combined.kind = PolicyKind::Combined;
    combined.targetLineUeProb = 1e-7;
    combined.rewriteHeadroom = 2;
    combined.linesPerRegion = 64;

    const Candidate candidates[] = {
        {"DRAM habits (SECDED, daily)", EccScheme::secdedX8(),
         basicDaily},
        {"DRAM mechanism, forced hourly", EccScheme::secdedX8(),
         basicHourly},
        {"BCH-8 + threshold, hourly", EccScheme::bch(8), threshold},
        {"BCH-8 combined (paper)", EccScheme::bch(8), combined},
    };

    std::printf("Sizing scrub for a %.0f TB MLC-PCM fleet "
                "(one simulated month, Zipf traffic, scaled up)\n",
                fleetTb);

    // Fleet scale factor: simulated lines are 64 B each.
    const double fleetLines = fleetTb * 1e12 / 64.0;
    const double scale = fleetLines / static_cast<double>(lines);

    Table table("Fleet projection",
                {"configuration", "machine_checks/yr",
                 "rewrites/line/day", "lifetime_burn_%/yr",
                 "avg_scrub_power_W"});
    for (const auto &candidate : candidates) {
        AnalyticConfig config;
        config.lines = lines;
        config.scheme = candidate.scheme;
        config.demand.kind = WorkloadKind::Zipf;
        config.demand.writesPerLinePerSecond = 1e-5;
        config.demand.readsPerLinePerSecond = 1e-4;
        config.seed = opt.seed; // Same device for every candidate.
        AnalyticBackend device(config);
        const auto policy = makePolicy(candidate.spec, device);
        runCheckpointed(device, *policy, horizon);
        const ScrubMetrics &m = device.metrics();

        const double perYear = 365.0 / days;
        const double machineChecks = m.totalUncorrectable() * scale *
            perYear;
        const double rewritesLineDay =
            static_cast<double>(m.scrubRewrites) / lines / days;
        // Lifetime burn: scrub writes per year over 1e8 endurance.
        const double burnPercent = rewritesLineDay * 365.0 / 1e8 *
            100.0;
        // Average power: energy in pJ over the month, fleet-scaled.
        const double watts = m.energy.total() * 1e-12 * scale /
            (days * 86400.0);
        table.row()
            .cell(candidate.label)
            .cellSci(machineChecks, 2)
            .cell(rewritesLineDay, 4)
            .cellSci(burnPercent, 2)
            .cell(watts, 2);
    }
    table.print();

    std::printf("\nReading the table: 'DRAM habits' is how a DRAM "
                "controller would scrub — drift makes it unusable. "
                "Forcing it hourly helps reliability but burns "
                "endurance and energy. The paper's combined "
                "mechanism is the only candidate that holds machine "
                "checks near zero at a tenth of the hourly "
                "baseline's writes and energy.\n");

    // Part 2: the RAS control plane against an aging device --------

    const RasSettings ras = rasSettings();
    const RasPhaseConfig phase{lines, days, opt.seed};

    std::unique_ptr<TelemetryLogger> log;
    if (!opt.telemetryPath.empty())
        log = std::make_unique<TelemetryLogger>(opt.telemetryPath);

    std::printf("\nClosed-loop phase: BCH-4 device whose chronic "
                "fast-drifter tail depends steeply on the sweep "
                "gap. SLO: %.1e host-visible UEs per line-day; "
                "interval bounds [%.0f s, %.0f s].\n",
                ras.sloUePerLineDay, ras.minIntervalS,
                ras.maxIntervalS);

    const RasModeResult relaxed =
        runRasMode(phase, "fixed_relaxed", ras.maxIntervalS,
                   /*auto_tune=*/false, log.get());
    const RasModeResult tight =
        runRasMode(phase, "fixed_tight", ras.minIntervalS,
                   /*auto_tune=*/false, log.get());
    // The closed loop starts at the conservative floor and relaxes
    // only as telemetry stays calm — the safe direction to explore
    // an unknown device from.
    const RasModeResult loop =
        runRasMode(phase, "closed_loop", ras.minIntervalS,
                   /*auto_tune=*/true, log.get());

    Table rasTable("RAS control plane over one month",
                   {"mode", "ue/line/day", "slo_held",
                    "rewrites/line/day", "energy_pj/line/day",
                    "final_interval_s", "ppr_remaps", "retired"});
    const auto addRow = [&](const char *mode,
                            const RasModeResult &r) {
        rasTable.row()
            .cell(mode)
            .cellSci(r.ueRate, 2)
            .cell(r.ueRate <= ras.sloUePerLineDay ? "yes" : "NO")
            .cell(r.writesLineDay, 4)
            .cellSci(r.energyLineDay, 3)
            .cell(r.finalIntervalS, 0)
            .cell(static_cast<double>(r.pprUsed), 0)
            .cell(static_cast<double>(r.retired), 0);
    };
    addRow("fixed_relaxed", relaxed);
    addRow("fixed_tight", tight);
    addRow("closed_loop", loop);
    rasTable.print();

    std::printf("\nReading the table: at the relaxed fixed interval "
                "the chronic-drifter tail dwarfs the repair budget — "
                "PPR rows and spares run dry shard by shard within "
                "days and the SLO is gone. The tight fixed interval holds the SLO "
                "but pays the full sweep cost all month. The closed "
                "loop starts tight and probes longer intervals "
                "whenever telemetry stays calm, letting the PPR rung "
                "prune the marginal tail each step — it holds the "
                "same SLO below the tight fixture's scrub energy and "
                "write budget, and the telemetry log records every "
                "decision it made along the way.\n");
    if (log != nullptr)
        std::printf("Telemetry JSONL appended to %s "
                    "(tools/telemetry_summary.py renders it).\n",
                    log->path().c_str());
    return 0;
}
