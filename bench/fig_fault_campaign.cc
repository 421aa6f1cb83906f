/**
 * @file
 * Fault-campaign survival curves: host-visible UEs vs. injected
 * fault intensity, with the degradation ladder off and on.
 *
 * One deterministic campaign (wear-correlated stuck-at faults,
 * transient read disturb, spatially-correlated bursts, metadata
 * corruption) is replayed at increasing intensity over identical
 * devices. With the ladder off every uncorrectable decode is a
 * host-visible event; with it on, widened-margin retries absorb the
 * transient failures and ECP re-learn / spare retirement / SLC
 * fallback absorb the hard ones, trading spares and capacity for
 * survived UEs.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/shard.hh"
#include "snapshot/checkpoint.hh"
#include "faults/fault_injector.hh"
#include "scrub/policy.hh"

using namespace pcmscrub;
using namespace pcmscrub::bench;

namespace {

constexpr std::uint64_t kLines = 1024;
constexpr std::uint64_t kSpares = 32;
constexpr Tick kHorizon = 10 * kDay;

FaultCampaignConfig
campaignAt(double intensity, std::uint64_t seed)
{
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 0.02 * intensity;
    campaign.wearCorrelation = 4.0;
    campaign.disturbFlipsPerRead = 0.5 * intensity;
    campaign.burstProbPerRead = 0.02 * intensity;
    campaign.burstBits = 6;
    campaign.metadataCorruptionProb = 0.001 * intensity;
    // Derived, not equal to the backend seed: the campaign stream is
    // independent, and the same campaign replays for every ladder
    // setting.
    campaign.seed = seed + 1227;
    return campaign;
}

struct CampaignResult
{
    ScrubMetrics metrics;
    FaultInjectorStats faults;
};

AnalyticConfig
deviceConfig(bool ladder, std::uint64_t seed)
{
    AnalyticConfig config = standardConfig(EccScheme::secdedX8(),
                                           kLines, seed);
    config.ecpEntries = 4;
    config.degradation.enabled = ladder;
    config.degradation.maxRetries = 2;
    config.degradation.spareLines = kSpares;
    config.degradation.slcFallback = true;
    return config;
}

CampaignResult
runCampaign(double intensity, bool ladder, std::uint64_t seed)
{
    AnalyticBackend backend(deviceConfig(ladder, seed));

    FaultInjector injector(campaignAt(intensity, seed));
    if (injector.enabled())
        backend.setFaultInjector(&injector);

    PolicySpec spec;
    spec.kind = PolicyKind::StrongEcc;
    spec.interval = kHour;
    const auto policy = makePolicy(spec, backend);
    runCheckpointed(backend, *policy, kHorizon);
    return CampaignResult{backend.metrics(), injector.stats()};
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv, 7);

    // Spares are provisioned per shard, so with fewer spares than
    // shards the high shards own none.
    const ShardPlan plan(kLines, deviceConfig(true, opt.seed).shards);
    std::printf("fault-campaign survival (10 days, %llu lines, "
                "hourly strong-ECC scrub, %llu spare lines over %zu "
                "shards, at most %llu per shard)\n",
                static_cast<unsigned long long>(kLines),
                static_cast<unsigned long long>(kSpares), plan.count(),
                static_cast<unsigned long long>(plan.share(kSpares, 0)));

    const double intensities[] = {0.0, 0.5, 1.0, 2.0, 4.0};

    Table table("UE survival vs. fault intensity",
                {"intensity", "ladder", "ue_surfaced", "absorbed",
                 "retries", "retry_ok", "ecp_fix", "retired", "slc",
                 "spares_left", "cap_lost_bits", "stuck_inj",
                 "inj_dropped"});
    for (const double intensity : intensities) {
        for (const bool ladder : {false, true}) {
            const CampaignResult r =
                runCampaign(intensity, ladder, opt.seed);
            const ScrubMetrics &m = r.metrics;
            table.row()
                .cell(intensity, 1)
                .cell(ladder ? "on" : "off")
                .cell(m.ueSurfaced)
                .cell(m.ueAbsorbed())
                .cell(m.ueRetries)
                .cell(m.ueRetryResolved)
                .cell(m.ueEcpRepaired)
                .cell(m.ueRetired)
                .cell(m.ueSlcFallbacks)
                .cell(m.sparesRemaining)
                .cell(m.capacityLostBits)
                .cell(r.faults.stuckCellsInjected)
                .cell(r.faults.droppedInjections);
        }
    }
    table.print();

    std::printf("\nExpected shape: surfaced UEs grow with intensity "
                "when the ladder is off; with it on the transient "
                "failures die in retry and the hard ones consume "
                "spares (then capacity) instead of reaching the "
                "host.\n");
    return 0;
}
