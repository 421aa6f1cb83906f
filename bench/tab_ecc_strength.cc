/**
 * @file
 * Experiment E3 — ECC strength vs. uncorrectable probability.
 *
 * The paper's strong-ECC argument in one table: the probability that
 * a line is uncorrectable at a given data age, for the DRAM-style
 * interleaved SECDED baseline and BCH of increasing strength, plus
 * the scrub interval each scheme can afford at a fixed reliability
 * target.
 *
 * Expected shape: each unit of t buys orders of magnitude at fixed
 * age; the affordable interval stretches from minutes (SECDED) to
 * many hours (BCH-8).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/math.hh"
#include "pcm/drift_model.hh"

using namespace pcmscrub;
using namespace pcmscrub::bench;

namespace {

/** Closed-form P(line uncorrectable) for a scheme at age t. */
double
lineUeProb(const DriftModel &model, const EccScheme &scheme,
           unsigned cells, double age)
{
    const double p = model.cellErrorProb(age);
    // Sum over error counts: P(k errors) * P(placement defeats ECC).
    double total = 0.0;
    for (unsigned k = 1; k <= cells && k <= 64; ++k) {
        const double pk = binomialPmf(cells, p, k);
        if (pk < 1e-30 && k > 16)
            break;
        total += pk * scheme.uncorrectableProb(k);
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    // No RNG here (closed-form only); parsed for the uniform CLI.
    parseBenchOptions(argc, argv);

    const DeviceConfig device;
    const DriftModel model(device);
    model.prewarm();

    std::printf("E3: P(line uncorrectable) by ECC scheme and age\n");

    const EccScheme schemes[] = {
        EccScheme::secdedX8(), EccScheme::bch(1), EccScheme::bch(2),
        EccScheme::bch(4),     EccScheme::bch(6), EccScheme::bch(8),
    };

    Table table("E3 ECC strength",
                {"scheme", "check_bits", "p_ue@1h", "p_ue@6h",
                 "p_ue@1day", "p_ue@1week", "interval@1e-7"});
    for (const auto &scheme : schemes) {
        const unsigned cells =
            (scheme.codewordBits() + bitsPerCell - 1) / bitsPerCell;
        table.row()
            .cell(scheme.name())
            .cell(scheme.checkBits());
        for (const double age : {3600.0, 21600.0, 86400.0, 604800.0})
            table.cellSci(lineUeProb(model, scheme, cells, age), 2);

        // The scrub interval the scheme affords at a 1e-7 target:
        // for interleaved SECDED approximate with the t=1 budget
        // (placement makes it slightly worse; the full curve is in
        // the columns to the left).
        const double interval = model.timeToLineUncorrectable(
            cells, scheme.guaranteedT(), 1e-7);
        table.cell(std::to_string(interval / 3600.0).substr(0, 6) +
                   " h");
    }
    table.print();

    std::printf("\nEach unit of correction strength extends the "
                "affordable scrub interval; this is the paper's "
                "case for scrub-aware strong ECC.\n");
    return 0;
}
