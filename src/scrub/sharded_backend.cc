#include "scrub/sharded_backend.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "faults/fault_injector.hh"

namespace pcmscrub {

ShardedBackend::ShardedBackend(std::uint64_t lines, std::size_t shards,
                               std::uint64_t seed,
                               const EccScheme &scheme,
                               const DeviceConfig &device,
                               const DegradationConfig &degradation)
    : plan_(lines, shards),
      scheme_(scheme),
      cellsPerLine_((scheme.codewordBits() + bitsPerCell - 1) / bitsPerCell),
      drift_(device),
      energy_(device),
      ladder_(degradation, plan_, energy_.marginReadExtra(cellsPerLine_),
              scheme.codewordBits()),
      readPj_(energy_.lineRead(cellsPerLine_)),
      shards_(plan_.count())
{
    // One independent counter-based RNG stream per shard: every draw
    // for a line comes from its shard's stream, so outcomes depend
    // only on (seed, shard, within-shard op order) — never on the
    // thread count interleaving the shards.
    for (std::size_t shard = 0; shard < shards_.size(); ++shard)
        shards_[shard].rng = Random::stream(seed, shard);
}

void
ShardedBackend::noteVisit(LineIndex line, Tick now)
{
    PCMSCRUB_ASSERT(line < plan_.lines(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    (void)now;
    ++metricsFor(line).linesChecked;
}

void
ShardedBackend::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    if (injector_ != nullptr)
        injector_->shardStreams(plan_.count());
}

void
ShardedBackend::setTelemetry(RegionTelemetry *telemetry)
{
    if (telemetry != nullptr) {
        PCMSCRUB_ASSERT(
            telemetry->lineCount() == lineCount(),
            "telemetry tracks %llu lines but the backend has %llu",
            static_cast<unsigned long long>(telemetry->lineCount()),
            static_cast<unsigned long long>(lineCount()));
    }
    telemetry_ = telemetry;
}

const ScrubMetrics &
ShardedBackend::metrics() const
{
    merged_ = ScrubMetrics{};
    for (const Shard &shard : shards_)
        merged_.merge(shard.metrics);
    ladder_.mergeGauges(merged_);
    return merged_;
}

ScrubMetrics &
ShardedBackend::metrics()
{
    const ShardedBackend *self = this;
    return const_cast<ScrubMetrics &>(self->metrics());
}

void
ShardedBackend::saveShell(SnapshotSink &sink,
                          const VisitSaver &save_visit) const
{
    sink.u64(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard &shard = shards_[i];
        saveRandom(sink, shard.rng);
        shard.metrics.saveState(sink);
        sink.u64(shard.chargedLine);
        sink.u64(shard.chargedTick);
        save_visit(sink, i);
    }

    ladder_.saveState(sink);

    sink.boolean(injector_ != nullptr);
    if (injector_ != nullptr)
        injector_->saveState(sink);

    sink.boolean(telemetry_ != nullptr);
    if (telemetry_ != nullptr)
        telemetry_->saveState(sink);
}

void
ShardedBackend::loadShell(SnapshotSource &source,
                          const VisitLoader &load_visit)
{
    if (source.u64() != shards_.size())
        source.corrupt("shard count does not match the shard plan");
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard &shard = shards_[i];
        loadRandom(source, shard.rng);
        shard.metrics.loadState(source);
        shard.chargedLine = source.u64();
        shard.chargedTick = source.u64();
        load_visit(source, i);
    }

    ladder_.loadState(source);

    const bool hadInjector = source.boolean();
    if (hadInjector != (injector_ != nullptr)) {
        source.corrupt(hadInjector
                           ? "snapshot has fault-injector state but "
                             "none is attached"
                           : "a fault injector is attached but the "
                             "snapshot has no injector state");
    }
    if (injector_ != nullptr)
        injector_->loadState(source);

    const bool hadTelemetry = source.boolean();
    if (hadTelemetry != (telemetry_ != nullptr)) {
        source.corrupt(hadTelemetry
                           ? "snapshot has telemetry state but no "
                             "telemetry sink is attached"
                           : "a telemetry sink is attached but the "
                             "snapshot has no telemetry state");
    }
    if (telemetry_ != nullptr)
        telemetry_->loadState(source);
}

} // namespace pcmscrub
