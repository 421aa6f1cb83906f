#include "scrub/degradation_ladder.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "mem/region_telemetry.hh"

namespace pcmscrub {

DegradationLadder::DegradationLadder(const DegradationConfig &config,
                                     const ShardPlan &plan,
                                     double margin_read_pj,
                                     std::uint64_t line_bits)
    : config_(config),
      plan_(plan),
      marginReadPj_(margin_read_pj),
      lineBits_(line_bits),
      spares_(config.enabled ? config.spareLines : 0, plan),
      ppr_(config.enabled ? config.pprSpareRows : 0, plan,
           config.pprUeThreshold)
{
}

void
DegradationLadder::settle(LineIndex line, Tick now, ScrubMetrics &metrics,
                          RegionTelemetry *telemetry, Hooks &hooks,
                          FullDecodeOutcome &outcome)
{
    outcome.handledBy = config_.enabled
        ? escalate(line, now, metrics, hooks)
        : DegradationStage::HostVisible;
    if (telemetry != nullptr)
        telemetry->onUncorrectable(plan_.shardOf(line), line,
                                   outcome.handledBy);
    if (outcome.handledBy == DegradationStage::HostVisible) {
        outcome.uncorrectable = true;
        ++metrics.scrubUncorrectable;
        ++metrics.ueSurfaced;
    } else {
        // A ladder stage absorbed the failure and left the line
        // freshly rewritten; nothing remains for the caller.
        outcome.errors = 0;
    }
}

DegradationStage
DegradationLadder::escalate(LineIndex line, Tick now,
                            ScrubMetrics &metrics, Hooks &hooks)
{
    // Stage 1: bounded re-reads with progressively widened margins.
    for (unsigned attempt = 1; attempt <= config_.maxRetries; ++attempt) {
        ++metrics.ueRetries;
        metrics.energy.add(EnergyCategory::MarginRead, marginReadPj_);
        if (hooks.retryRead(line, now, attempt)) {
            ++metrics.ueRetryResolved;
            return DegradationStage::Retry;
        }
    }

    // Stage 2: write-verify so ECP re-learns the stuck bits.
    if (config_.ecpRepair && hooks.relearnEcp(line, now)) {
        ++metrics.ueEcpRepaired;
        return DegradationStage::EcpRepair;
    }

    // Stage 3: fuse a chronic line over to a spare row of its shard's
    // partition. The fuse is one-shot per address, and a line felled
    // by a one-off event falls through without burning a row.
    const auto rows = static_cast<unsigned long long>(config_.pprSpareRows);
    if (rows > 0) {
        ppr_.noteUncorrectable(line);
        if (ppr_.qualifies(line) && ppr_.remap(line)) {
            ++metrics.uePprRemapped;
            warn_once("PPR-remapping chronic lines to spare rows "
                      "(%llu rows configured)", rows);
            hooks.moveToFreshRow(line, now);
            return DegradationStage::PprRemap;
        }
        if (ppr_.partitionExhausted(line)) {
            warn_once("PPR spare rows exhausted in one shard's "
                      "partition (%llu configured, at most %llu per "
                      "shard); chronic lines in that shard now fall "
                      "through to retirement",
                      rows, static_cast<unsigned long long>(
                                plan_.share(rows, 0)));
        }
    }

    // Stage 4: retire the line to a spare of its shard's partition.
    const auto spares = static_cast<unsigned long long>(config_.spareLines);
    if (spares_.retire(line)) {
        ++metrics.ueRetired;
        metrics.capacityLostBits += lineBits_;
        warn_once("retiring failing lines to spares "
                  "(%llu spares configured)", spares);
        hooks.moveToFreshRow(line, now);
        return DegradationStage::Retire;
    }
    if (spares > 0) {
        warn_once("spare pool exhausted in one shard's partition "
                  "(%llu spares configured, at most %llu per shard); "
                  "failing lines in that shard now fall through to "
                  "SLC/host",
                  spares, static_cast<unsigned long long>(
                              plan_.share(spares, 0)));
    }

    // Stage 5: drop the line to drift-immune SLC, at half density.
    if (config_.slcFallback && !hooks.isSlc(line)) {
        ++metrics.ueSlcFallbacks;
        metrics.capacityLostBits += lineBits_;
        warn_once("failing lines fall back to SLC operation "
                  "(density halved)");
        if (hooks.dropToSlc(line, now))
            return DegradationStage::SlcFallback;
    }

    warn_once("uncorrectable errors surface to the host");
    return DegradationStage::HostVisible;
}

void
DegradationLadder::mergeGauges(ScrubMetrics &merged) const
{
    merged.sparesRemaining = spares_.remaining();
    merged.pprSparesRemaining = ppr_.remaining();
}

void
DegradationLadder::saveState(SnapshotSink &sink) const
{
    spares_.saveState(sink);
    ppr_.saveState(sink);
}

void
DegradationLadder::loadState(SnapshotSource &source)
{
    spares_.loadState(source);
    ppr_.loadState(source);
}

void
DegradationLadder::addToFingerprint(Fingerprint &fp) const
{
    fp.u64(config_.enabled ? 1 : 0);
    fp.u64(config_.maxRetries);
    fp.f64(config_.retryMarginWiden);
    fp.f64(config_.retryResolveProb);
    fp.u64(config_.ecpRepair ? 1 : 0);
    fp.u64(config_.spareLines);
    fp.u64(config_.slcFallback ? 1 : 0);
    fp.u64(config_.pprSpareRows);
    fp.u64(config_.pprUeThreshold);
}

} // namespace pcmscrub
