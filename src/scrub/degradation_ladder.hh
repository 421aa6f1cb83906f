/**
 * @file
 * The one driver of the uncorrectable-error degradation ladder
 * (faults/degradation.hh), shared by both scrub backends. It owns the
 * ladder's configuration and per-shard repair tables and runs every
 * stage's control flow, counters and warnings; the backend supplies
 * what a stage physically does to a line through Hooks.
 *
 * Concurrent shard tasks share one driver: it holds no mutable state
 * outside the per-shard partitions of its tables.
 */

#ifndef PCMSCRUB_SCRUB_DEGRADATION_LADDER_HH
#define PCMSCRUB_SCRUB_DEGRADATION_LADDER_HH

#include "mem/metadata.hh"
#include "mem/ppr.hh"
#include "scrub/backend.hh"

namespace pcmscrub {

class Fingerprint;

/** Retry → ECP → PPR → retire → SLC → host. */
class DegradationLadder
{
  public:
    /** A stage's action on one line; a write charges its own energy
     *  and wear. */
    class Hooks
    {
      public:
        /** Widened-margin re-read `attempt` (from 1); on success,
         *  refresh the line with the recovered data. */
        virtual bool retryRead(LineIndex line, Tick now,
                               unsigned attempt) = 0;
        /** Write-verify so ECP re-learns the stuck bits; whether the
         *  line now decodes (false, doing nothing, without ECP). */
        virtual bool relearnEcp(LineIndex line, Tick now) = 0;
        /** Program the line onto fresh silicon (PPR row or spare). */
        virtual void moveToFreshRow(LineIndex line, Tick now) = 0;
        virtual bool isSlc(LineIndex line) const = 0;
        /** Demote to SLC and reprogram; whether it now decodes. */
        virtual bool dropToSlc(LineIndex line, Tick now) = 0;

      protected:
        ~Hooks() = default;
    };

    /**
     * @param config spares and PPR rows are provisioned only when the
     *        ladder is enabled
     * @param plan the owning backend's shard plan
     * @param margin_read_pj extra energy of one widened-margin read
     * @param line_bits storage bits a retired or SLC line gives up
     */
    DegradationLadder(const DegradationConfig &config,
                      const ShardPlan &plan, double margin_read_pj,
                      std::uint64_t line_bits);

    const SparePool &spares() const { return spares_; }
    PprRemapTable &ppr() { return ppr_; }

    /**
     * Settle an uncorrectable decode of `line`: run the ladder when
     * enabled, report the handling stage to `telemetry` (may be
     * nullptr), then count a host-visible UE or, when a stage
     * absorbed it, clear `outcome.errors`.
     *
     * @param metrics the metrics slice of `line`'s shard
     */
    void settle(LineIndex line, Tick now, ScrubMetrics &metrics,
                RegionTelemetry *telemetry, Hooks &hooks,
                FullDecodeOutcome &outcome);

    /** Set the spare and PPR-row gauges of a merged metrics view. */
    void mergeGauges(ScrubMetrics &merged) const;

    /** The spare pool's state, then the PPR table's. */
    void saveState(SnapshotSink &sink) const;
    void loadState(SnapshotSource &source);

    void addToFingerprint(Fingerprint &fp) const;

  private:
    /** The stage that absorbed the UE, or HostVisible. */
    DegradationStage escalate(LineIndex line, Tick now,
                              ScrubMetrics &metrics, Hooks &hooks);

    DegradationConfig config_;
    ShardPlan plan_;
    double marginReadPj_;
    std::uint64_t lineBits_;
    SparePool spares_;
    PprRemapTable ppr_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_DEGRADATION_LADDER_HH
