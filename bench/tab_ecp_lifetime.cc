/**
 * @file
 * Substrate experiment — ECP hard-error tolerance under scrub.
 *
 * Late in device life, wear-out turns scrub's own corrective writes
 * into stuck cells; without hard-error machinery those stuck cells
 * consume the ECC budget that drift needs, and uncorrectable lines
 * appear. This harness runs a worn, scaled-endurance device under
 * threshold scrub with increasing ECP capacity.
 *
 * Expected shape: ECP-0 leaks stuck-cell errors into the BCH budget
 * and UEs climb; each pair of ECP entries absorbs one stuck cell,
 * pushing the failure horizon out — the division of labour (ECP for
 * hard, BCH+scrub for soft) that the paper's system context assumes.
 */

#include <cstdio>

#include "bench_util.hh"
#include "ecc/ecp.hh"

using namespace pcmscrub;
using namespace pcmscrub::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    constexpr std::uint64_t lines = 2048;
    constexpr Tick horizon = 20 * kDay;

    std::printf("Substrate: ECP vs. wear-induced errors under "
                "threshold scrub\n"
                "(BCH-8, hourly threshold-4 sweep, 20 days, "
                "endurance median scaled to 400 writes, hot demand)\n");

    Table table("ECP lifetime extension",
                {"ecp_entries", "overhead_bits", "worn_cells",
                 "ue_total", "rewrites/line/day", "energy_uJ/GB/day"});

    for (const unsigned entries : {0u, 4u, 8u, 16u, 32u}) {
        PolicySpec spec;
        spec.kind = PolicyKind::Threshold;
        spec.interval = kHour;
        spec.rewriteThreshold = 4;

        AnalyticConfig config = standardConfig(EccScheme::bch(8),
                                               lines, opt.seed);
        config.device.enduranceScale = 4e-6; // Median 400 writes.
        config.device.enduranceSigmaLn = 0.5;
        // Hot demand: new data exposes stuck-cell conflicts.
        config.demand.writesPerLinePerSecond = 5e-5;
        config.ecpEntries = entries;

        const RunResult result = runPolicy(
            "ecp" + std::to_string(entries), config, spec, horizon);
        table.row()
            .cell(entries)
            .cell(EcpStore(config.scheme.codewordBits(), entries)
                      .overheadBits())
            .cell(result.metrics.cellsWornOut)
            .cell(result.uncorrectable(), 2)
            .cell(result.rewritesPerLineDay(), 4)
            .cell(result.energyUjPerGbDay(), 1);
    }
    table.print();

    std::printf("\nEach two ECP entries absorb one stuck cell; UEs "
                "collapse once the typical line's stuck population "
                "fits the budget (ECP-4 = 45 bits, under 8%% of the "
                "codeword).\n");
    return 0;
}
