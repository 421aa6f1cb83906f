/**
 * @file
 * The shard shell both scrub backends are built on: everything a
 * backend does that is engine plumbing rather than device physics.
 *
 * It owns the ShardPlan and, per shard, the RNG stream, the metrics
 * slice and the once-per-visit array-read charge; the degradation
 * ladder; and the attached fault injector and region telemetry. It
 * answers the ScrubBackend queries that follow from those alone and
 * writes the shard/ladder/injector/telemetry tail of the checkpoint.
 * A backend adds its physics, its own per-shard visit cache (which
 * rides in the shell's shard records) and its fingerprint.
 *
 * Everything here is a function of the configuration alone: the
 * shell is constructed before the backend's own members.
 */

#ifndef PCMSCRUB_SCRUB_SHARDED_BACKEND_HH
#define PCMSCRUB_SCRUB_SHARDED_BACKEND_HH

#include <functional>
#include <vector>

#include "common/random.hh"
#include "mem/region_telemetry.hh"
#include "pcm/energy.hh"
#include "scrub/backend.hh"
#include "scrub/degradation_ladder.hh"

namespace pcmscrub {

/**
 * ScrubBackend base over a fixed shard partition of the lines.
 */
class ShardedBackend : public ScrubBackend
{
  public:
    std::uint64_t lineCount() const override { return plan_.lines(); }
    ShardPlan shardPlan() const override { return plan_; }
    unsigned cellsPerLine() const override { return cellsPerLine_; }
    const EccScheme &scheme() const override { return scheme_; }
    const DriftModel &drift() const override { return drift_; }

    void noteVisit(LineIndex line, Tick now) override;
    void setFaultInjector(FaultInjector *injector) override;
    void setTelemetry(RegionTelemetry *telemetry) override;
    const SparePool *spares() const override { return &ladder_.spares(); }
    PprRemapTable *ppr() override { return &ladder_.ppr(); }

    /**
     * Per-shard metric slices merged in ascending shard order — the
     * fixed reduction order that makes even the floating-point sums
     * bit-identical at any thread count.
     */
    const ScrubMetrics &metrics() const override;
    ScrubMetrics &metrics() override;

  protected:
    /**
     * @param lines line population
     * @param shards requested shard count (0 = default)
     * @param seed each shard's RNG stream is Random::stream(seed, shard)
     * @param scheme line protection; a line stores its codewordBits()
     * @param device physics of the energy and drift models
     * @param degradation the ladder's configuration
     */
    ShardedBackend(std::uint64_t lines, std::size_t shards,
                   std::uint64_t seed, const EccScheme &scheme,
                   const DeviceConfig &device,
                   const DegradationConfig &degradation);

    /** RNG stream of the shard owning a line. */
    Random &rngFor(LineIndex line) { return shardFor(line).rng; }

    /** Metrics slice of the shard owning a line. */
    ScrubMetrics &metricsFor(LineIndex line) { return shardFor(line).metrics; }

    /** Book `pj` in the line's metrics slice and its telemetry region. */
    void chargeEnergy(LineIndex line, EnergyCategory category, double pj)
    {
        metricsFor(line).energy.add(category, pj);
        if (telemetry_ != nullptr)
            telemetry_->onEnergy(plan_.shardOf(line), line, pj);
    }

    /** Charge the array read once per (line, tick) visit. */
    void chargeArrayRead(LineIndex line, Tick now)
    {
        Shard &shard = shardFor(line);
        if (shard.chargedLine == line && shard.chargedTick == now)
            return;
        shard.chargedLine = line;
        shard.chargedTick = now;
        shard.metrics.energy.add(EnergyCategory::ArrayRead, readPj_);
        if (telemetry_ != nullptr)
            telemetry_->onEnergy(plan_.shardOf(line), line, readPj_);
    }

    /**
     * Forget the shard's read charge: after a reprogram, a re-read is
     * a fresh sensing pass and charges again even at the same tick.
     */
    void forgetArrayRead(LineIndex line)
    {
        shardFor(line).chargedLine = ~LineIndex{0};
    }

    /** Writes or reads a backend's visit cache of one shard. */
    using VisitSaver = std::function<void(SnapshotSink &, std::size_t)>;
    using VisitLoader = std::function<void(SnapshotSource &, std::size_t)>;

    /**
     * The shell's checkpoint tail: each shard's RNG, metrics slice and
     * read charge followed by `save_visit`'s cache of that shard, then
     * the ladder tables, then the injector's and the telemetry's state
     * behind a presence flag each.
     */
    void saveShell(SnapshotSink &sink, const VisitSaver &save_visit) const;

    /** Restore saveShell()'s tail; a mismatched attachment is corrupt. */
    void loadShell(SnapshotSource &source, const VisitLoader &load_visit);

    const ShardPlan plan_;
    const EccScheme scheme_;
    const unsigned cellsPerLine_; //!< MLC cells of one line.
    DriftModel drift_;
    const EnergyModel energy_;
    DegradationLadder ladder_;
    FaultInjector *injector_ = nullptr;    //!< Not owned.
    RegionTelemetry *telemetry_ = nullptr; //!< Not owned.

  private:
    /**
     * The engine state one shard owns. Shard tasks run concurrently,
     * so nothing here may be shared across shards.
     */
    struct Shard
    {
        Random rng;
        ScrubMetrics metrics;

        /** Array-read charge dedup (line, tick of last charge). */
        LineIndex chargedLine = ~LineIndex{0};
        Tick chargedTick = ~Tick{0};
    };

    Shard &shardFor(LineIndex line) { return shards_[plan_.shardOf(line)]; }

    const double readPj_; //!< Energy of one line read.
    std::vector<Shard> shards_;
    mutable ScrubMetrics merged_; //!< Rebuilt on each metrics() call.
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_SHARDED_BACKEND_HH
