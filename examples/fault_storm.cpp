/**
 * @file
 * Fault storm: watch the degradation ladder fight for a small
 * cell-accurate device as the fault pressure escalates.
 *
 * Act 1 pelts the array with transient burst reads (every sensing
 * pass corrupted) — widened-margin retries absorb all of it. Act 2
 * freezes a few cells per line — the ECP write-verify pass re-learns
 * them. Act 3 kills whole lines — retirement drains the spare pool,
 * and once it is dry the survivors drop to SLC or surface to the
 * host.
 *
 *   $ ./fault_storm [--seed N] [--threads N]
 */

#include <cstdio>

#include "common/cli.hh"
#include "faults/fault_injector.hh"
#include "scrub/cell_backend.hh"
#include "scrub/sweep_scrub.hh"
#include "snapshot/checkpoint.hh"

using namespace pcmscrub;

namespace {

void
report(const char *act, const CellBackend &device)
{
    const ScrubMetrics &m = device.metrics();
    std::printf("%s\n", act);
    std::printf("  retries %llu (resolved %llu) | ecp repairs %llu | "
                "retired %llu | slc %llu | surfaced %llu\n",
                static_cast<unsigned long long>(m.ueRetries),
                static_cast<unsigned long long>(m.ueRetryResolved),
                static_cast<unsigned long long>(m.ueEcpRepaired),
                static_cast<unsigned long long>(m.ueRetired),
                static_cast<unsigned long long>(m.ueSlcFallbacks),
                static_cast<unsigned long long>(m.ueSurfaced));
    std::printf("  spares left %llu/%llu | capacity lost %llu bits\n\n",
                static_cast<unsigned long long>(m.sparesRemaining),
                static_cast<unsigned long long>(
                    device.spares()->capacity()),
                static_cast<unsigned long long>(m.capacityLostBits));
}

void
sweepOnce(CellBackend &device, Tick now)
{
    CheckProcedure procedure; // Full decode on every line.
    for (LineIndex line = 0; line < device.lineCount(); ++line)
        scrubCheckLine(device, line, now, procedure);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseCliOptions(argc, argv, 2024);
    // This harness's simulation state (its trace cursor and hand-
    // rolled loops) lives outside the snapshot runtime.
    CheckpointRuntime::global().configure(opt, /*supported=*/false);


    // A small cell-accurate device: 64 BCH-4 lines, 16 ECP entries
    // per line, and the full ladder armed with 8 spare lines.
    CellBackendConfig config;
    config.lines = 64;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 16;
    config.seed = opt.seed;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 2;
    config.degradation.spareLines = 8;
    config.degradation.slcFallback = true;
    CellBackend device(config);

    std::printf("fault storm over %llu cell-accurate lines "
                "(BCH-4, 16 ECP entries, 8 spares, SLC fallback)\n\n",
                static_cast<unsigned long long>(device.lineCount()));

    // Act 1: pure transient storm — every sensing pass corrupted by
    // a 12-bit burst, far beyond BCH-4. Nothing sticks: a re-read
    // with widened margins recovers every line.
    FaultCampaignConfig storm;
    storm.burstProbPerRead = 1.0;
    storm.burstBits = 12;
    storm.seed = opt.seed + 1;
    FaultInjector transients(storm);
    device.setFaultInjector(&transients);
    sweepOnce(device, secondsToTicks(3600.0));
    device.setFaultInjector(nullptr);
    report("act 1: transient burst storm (retries absorb)", device);

    // Act 2: a hard-fault wave freezes 8 cells on a third of the
    // lines. Retries cannot help stuck cells; the ladder's
    // write-verify pass points ECP entries at them instead.
    FaultCampaignConfig hard;
    hard.seed = opt.seed + 2;
    FaultInjector freezer(hard);
    for (LineIndex line = 0; line < device.lineCount(); line += 3)
        freezer.freezeCells(device.array().line(line), 8);
    sweepOnce(device, secondsToTicks(2 * 3600.0));
    report("act 2: stuck-cell wave (ECP re-learns)", device);

    // Act 3: total wear-out of a dozen lines — more dead cells than
    // ECP can patch. Retirement rides the spare pool until it runs
    // dry; the rest fall to SLC, and whoever SLC cannot save
    // surfaces to the host.
    for (LineIndex line = 0; line < 12; ++line)
        freezer.freezeCells(device.array().line(line), 60);
    sweepOnce(device, secondsToTicks(3 * 3600.0));
    report("act 3: line wear-out (retire, then SLC)", device);

    std::printf("%s\n", device.metrics().toString().c_str());
    return 0;
}
