#include "scrub/adaptive_scrub.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/shard.hh"
#include "common/thread_pool.hh"

namespace pcmscrub {

AdaptiveScrub::AdaptiveScrub(const AdaptiveParams &params,
                             const ScrubBackend &backend)
    : AdaptiveScrub(params, backend, "adaptive")
{
}

AdaptiveScrub::AdaptiveScrub(const AdaptiveParams &params,
                             const ScrubBackend &backend,
                             const char *name)
    : params_(params),
      name_(name),
      eccT_(backend.scheme().guaranteedT()),
      lineCount_(backend.lineCount())
{
    if (params_.targetLineUeProb <= 0.0 ||
        params_.targetLineUeProb >= 1.0)
        fatal("adaptive UE target must lie in (0, 1)");
    if (params_.linesPerRegion == 0)
        fatal("adaptive region must hold at least one line");
    if (params_.minSpacingFraction <= 0.0)
        fatal("adaptive minimum spacing must be positive");

    // The safe-age search reads the cell-error table; the analytic
    // backend has prewarmed it already, the cell backend has not.
    backend.drift().prewarm();
    const double safeAgeSeconds = backend.drift().timeToLineUncorrectable(
        backend.cellsPerLine(), eccT_, params_.targetLineUeProb);
    safeAgeTicks_ = secondsToTicks(safeAgeSeconds);
    if (safeAgeTicks_ == 0)
        fatal("UE target %g unreachable: device fails instantly",
              params_.targetLineUeProb);

    const std::uint64_t regions =
        (lineCount_ + params_.linesPerRegion - 1) /
        params_.linesPerRegion;
    // All data written at tick 0: every region is first due at the
    // safe age.
    regionDue_.assign(regions, safeAgeTicks_);
    regionWorstErrors_.assign(regions, 0);

    // Build the drift model's conditional-horizon tables and growth
    // brackets now, from this serial context: wake() evaluates them
    // from parallel shard tasks, which only *read* (an errors_left
    // missed here asserts). Every errors_left value lineHorizon can
    // see is below the rewrite threshold (and the model early-outs
    // past the ECC budget), so this covers all reachable ones.
    const unsigned cells = backend.cellsPerLine();
    const unsigned maxErrors = std::min<unsigned>(
        eccT_,
        params_.procedure.rewriteThreshold > 0
            ? params_.procedure.rewriteThreshold - 1
            : 0);
    for (unsigned e = 0; e <= maxErrors; ++e) {
        backend.drift().prewarmConditional(cells, eccT_, e,
                                           params_.targetLineUeProb);
    }
}

std::string
AdaptiveScrub::name() const
{
    return name_;
}

Tick
AdaptiveScrub::nextWake() const
{
    return *std::min_element(regionDue_.begin(), regionDue_.end());
}

Tick
AdaptiveScrub::lineHorizon(ScrubBackend &backend, HorizonCache &cache,
                           unsigned errors_left, double age_seconds)
{
    int ageBucket = 0;
    if (age_seconds > 1.0) {
        ageBucket = static_cast<int>(std::log10(age_seconds) / 0.05) +
            1;
    }
    const std::uint64_t key =
        static_cast<std::uint64_t>(errors_left) * 4096 +
        static_cast<std::uint64_t>(ageBucket);
    const auto cached = cache.find(key);
    if (cached != cache.end())
        return cached->second;

    const double horizonSeconds =
        backend.drift().timeToConditionalUncorrectable(
            backend.cellsPerLine(), eccT_, errors_left, age_seconds,
            params_.targetLineUeProb);
    // Lines rewritten *after* this check restart their risk clocks
    // with the full safe age; never trust a horizon beyond it.
    const Tick horizon = std::min(secondsToTicks(horizonSeconds),
                                  safeAgeTicks_);
    cache[key] = horizon;
    return horizon;
}

void
AdaptiveScrub::wake(ScrubBackend &backend, Tick now)
{
    const auto minSpacing = std::max<Tick>(
        static_cast<Tick>(static_cast<double>(safeAgeTicks_) *
                          params_.minSpacingFraction),
        1);

    // Regions due this wake (regionDue_ is read-only while the shard
    // tasks run).
    std::vector<std::uint64_t> due;
    for (std::uint64_t region = 0; region < regionDue_.size();
         ++region) {
        if (regionDue_[region] <= now)
            due.push_back(region);
    }
    if (due.empty())
        return;

    // The parallel unit is the backend's shard, not the region:
    // regions may be smaller than shards, and two tasks inside one
    // shard would race its RNG stream. Each task walks the due
    // regions clipped to its shard's line range (ascending, so the
    // within-shard visit order matches a serial sweep) and records a
    // (region, worst errors, horizon) partial per overlap. The memo
    // cache is per task — it only short-circuits recomputation of a
    // pure function, so sharing pattern cannot change results.
    struct Partial
    {
        std::uint64_t region;
        unsigned worst;
        Tick horizon;
    };
    // Dispatch only the shards that own a due line, ascending: a
    // typical wake has one due region inside one shard, and the
    // others would only find nothing to do.
    const ShardPlan plan = backend.shardPlan();
    std::vector<std::size_t> shards;
    for (const std::uint64_t region : due) {
        const LineIndex regionStart = region * params_.linesPerRegion;
        const LineIndex regionLast = std::min<LineIndex>(
            regionStart + params_.linesPerRegion, lineCount_) - 1;
        std::size_t shard = plan.shardOf(regionStart);
        if (!shards.empty() && shards.back() >= shard)
            shard = shards.back() + 1;
        for (; shard <= plan.shardOf(regionLast); ++shard)
            shards.push_back(shard);
    }
    std::vector<std::vector<Partial>> partials(shards.size());

    ThreadPool::global().run(shards.size(), [&](std::size_t task) {
        const std::size_t shard = shards[task];
        const ShardRange range = plan.range(shard);
        HorizonCache cache;
        for (const std::uint64_t region : due) {
            const LineIndex regionStart =
                region * params_.linesPerRegion;
            const LineIndex regionEnd = std::min<LineIndex>(
                regionStart + params_.linesPerRegion, lineCount_);
            const LineIndex begin =
                std::max<LineIndex>(regionStart, range.begin);
            const LineIndex end =
                std::min<LineIndex>(regionEnd, range.end);
            if (begin >= end)
                continue;

            // The region's next check is due at the earliest
            // per-line conditional risk deadline, each line anchored
            // at its own (residual errors, data age) as verified by
            // this visit.
            unsigned worst = 0;
            Tick horizon = safeAgeTicks_;
            for (LineIndex line = begin; line < end; ++line) {
                const LineCheckResult result = scrubCheckLine(
                    backend, line, now, params_.procedure);
                worst = std::max(worst, result.errorsLeft);
                const Tick written = backend.lastFullWrite(line, now);
                const double age = written <= now
                    ? ticksToSeconds(now - written) : 0.0;
                horizon = std::min(
                    horizon,
                    lineHorizon(backend, cache, result.errorsLeft,
                                age));
            }
            partials[task].push_back({region, worst, horizon});
        }
    });

    // Merge the per-(shard, region) partials in ascending shard
    // order — a fixed reduction order, though max/min are exactly
    // commutative anyway.
    for (const std::uint64_t region : due) {
        regionWorstErrors_[region] = 0;
        regionDue_[region] = now + std::max(safeAgeTicks_, minSpacing);
    }
    for (const std::vector<Partial> &shardPartials : partials) {
        for (const Partial &partial : shardPartials) {
            regionWorstErrors_[partial.region] = std::max<std::uint16_t>(
                regionWorstErrors_[partial.region],
                static_cast<std::uint16_t>(partial.worst));
            regionDue_[partial.region] = std::min(
                regionDue_[partial.region],
                now + std::max(partial.horizon, minSpacing));
        }
    }
}

void
AdaptiveScrub::checkpointSave(SnapshotSink &sink) const
{
    sink.u64(regionDue_.size());
    for (const Tick due : regionDue_)
        sink.u64(due);
    for (const std::uint16_t worst : regionWorstErrors_)
        sink.u16(worst);
}

void
AdaptiveScrub::checkpointLoad(SnapshotSource &source)
{
    if (source.u64() != regionDue_.size())
        source.corrupt("region count does not match the geometry");
    for (Tick &due : regionDue_)
        due = source.u64();
    for (std::uint16_t &worst : regionWorstErrors_)
        worst = source.u16();
}

namespace {

CheckProcedure
combinedProcedure(unsigned ecc_t, unsigned rewrite_headroom)
{
    CheckProcedure procedure;
    procedure.lightDetectFirst = true;
    // Rewrite once the error count reaches t - headroom (at least 1).
    procedure.rewriteThreshold =
        ecc_t > rewrite_headroom ? ecc_t - rewrite_headroom : 1;
    if (procedure.rewriteThreshold < 1)
        procedure.rewriteThreshold = 1;
    return procedure;
}

} // namespace

CombinedScrub::CombinedScrub(double target_ue_prob,
                             unsigned rewrite_headroom,
                             const ScrubBackend &backend,
                             std::uint64_t lines_per_region)
    : AdaptiveScrub(
          AdaptiveParams{
              target_ue_prob,
              lines_per_region,
              combinedProcedure(backend.scheme().guaranteedT(),
                                rewrite_headroom),
              0.1,
          },
          backend, "combined")
{
}

} // namespace pcmscrub
