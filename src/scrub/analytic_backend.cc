#include "scrub/analytic_backend.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/math.hh"
#include "common/serialize.hh"
#include "ecc/checksum.hh"
#include "faults/fault_injector.hh"

namespace pcmscrub {

namespace {

/** Mean program iterations per cell for uniformly-random data. */
double
averageIterationsPerCell(const DeviceConfig &config)
{
    // Extreme levels take one pulse; the two intermediate levels
    // take the iterative mean.
    return (2.0 * 1.0 + 2.0 * config.meanIterationsIntermediate) /
        static_cast<double>(mlcLevels);
}

} // namespace

AnalyticBackend::AnalyticBackend(const AnalyticConfig &config)
    : ShardedBackend(config.lines, config.shards, config.seed,
                     config.scheme, config.device, config.degradation),
      config_(config),
      wear_(config.device),
      demand_(config.demand, config.lines),
      refreshPj_(energy_.lineWrite(static_cast<std::uint64_t>(std::llround(
          cellsPerLine_ * averageIterationsPerCell(config.device))))),
      lines_(config.lines),
      transients_(plan_.count()),
      weakMemos_(plan_.count())
{
    PCMSCRUB_ASSERT(config.lines >= 1, "backend needs lines");
    PCMSCRUB_ASSERT(config.weakCellsTracked < cellsPerLine_,
                    "cannot track %u weak cells of %u",
                    config.weakCellsTracked, cellsPerLine_);
    detector_ = makeDetector(config.detectorKind,
                             config.scheme.codewordBits(),
                             config.detectorParity, bitsPerCell);

    const unsigned k = config_.weakCellsTracked;
    const double bulkQuantile = 1.0 -
        static_cast<double>(k) / static_cast<double>(cellsPerLine_);

    // Build the drift model's lookup tables here, from serial code:
    // parallel wakes only read them.
    drift_.prewarm();
    drift_.prewarmBulk(bulkQuantile);
    bulkTable_ = &drift_.bulkTable(bulkQuantile);
    const unsigned t = scheme_.guaranteedT();
    for (unsigned stuck = 0; stuck <= t; ++stuck) {
        crossAges_.push_back(drift_.timeToExpectedErrors(
            cellsPerLine_, static_cast<double>(t + 1) -
                static_cast<double>(stuck)));
    }
    for (WeakCellMemo &memo : weakMemos_)
        memo.crossProb.resize(k);

    weakCells_.resize(config.lines * k);
    for (std::uint64_t line = 0; line < config.lines; ++line)
        sampleWeakSpeeds(line);
}

void
AnalyticBackend::sampleWeakSpeeds(LineIndex line)
{
    // Sample the line's top-k intrinsic drift speeds via uniform
    // order statistics: the j-th largest of n uniforms is the
    // previous one scaled by U^(1/(n-j)).
    const unsigned k = config_.weakCellsTracked;
    forgetWeakCells(line);
    Random &rng = rngFor(line);
    double topUniform = 1.0;
    for (unsigned j = 0; j < k; ++j) {
        const double draw = std::max(rng.uniform(), 1e-12);
        topUniform *= std::pow(
            draw, 1.0 / static_cast<double>(cellsPerLine_ - j));
        WeakCell &cell = weakCells_[line * k + j];
        cell.speed = static_cast<float>(drift_.speedAtQuantile(
            std::clamp(topUniform, 1e-12, 1.0 - 1e-15)));
        cell.level =
            static_cast<std::uint8_t>(rng.uniformInt(mlcLevels));
    }
}

AnalyticBackend::~AnalyticBackend() = default;

double
AnalyticBackend::ageSeconds(const LineState &state, Tick now) const
{
    PCMSCRUB_ASSERT(now >= state.lastWrite, "time ran backwards");
    return ticksToSeconds(now - state.lastWrite);
}

unsigned
AnalyticBackend::weakErrors(LineIndex line) const
{
    const unsigned k = config_.weakCellsTracked;
    unsigned crossed = 0;
    for (unsigned j = 0; j < k; ++j)
        crossed += weakCells_[line * k + j].crossed;
    return crossed;
}

void
AnalyticBackend::resetWeakCells(LineIndex line, bool new_data)
{
    const unsigned k = config_.weakCellsTracked;
    forgetWeakCells(line);
    Random &rng = rngFor(line);
    for (unsigned j = 0; j < k; ++j) {
        WeakCell &cell = weakCells_[line * k + j];
        cell.crossed = false;
        cell.qSampled = 0.0f;
        if (new_data) {
            cell.level =
                static_cast<std::uint8_t>(rng.uniformInt(mlcLevels));
        }
    }
}

unsigned
AnalyticBackend::applyWear(LineIndex line, LineState &state,
                           double count)
{
    const double before = state.writes;
    state.writes += count;
    const double hazard = wear_.conditionalFailure(before, state.writes);
    unsigned died = 0;
    if (hazard > 0.0) {
        const unsigned alive = cellsPerLine_ - state.stuckCells;
        died = static_cast<unsigned>(
            rngFor(line).binomial(alive, hazard));
        state.stuckCells = static_cast<std::uint16_t>(
            state.stuckCells + died);
        metricsFor(line).cellsWornOut += died;
    }
    // Injected wear-correlated hard faults ride on the same write
    // traffic (the injector's own per-shard stream; the backend
    // stream is not perturbed).
    if (injector_ != nullptr && count > 0.0) {
        const unsigned alive = cellsPerLine_ - state.stuckCells;
        const unsigned frozen = std::min(
            injector_->sampleStuckCells(
                count, wear_.failureCdf(state.writes),
                plan_.shardOf(line)),
            alive);
        state.stuckCells = static_cast<std::uint16_t>(
            state.stuckCells + frozen);
        died += frozen;
    }
    return died;
}

void
AnalyticBackend::resetAfterWrite(LineIndex line, Tick now,
                                 bool new_data)
{
    LineState &state = lines_[line];
    state.lastWrite = now;
    state.pSampled = 0.0;
    state.driftErrors = 0;
    state.ueSampledErrors = 0;
    state.uePlaced = false;
    resetWeakCells(line, new_data);
    if (new_data) {
        if (state.slc) {
            // One bit per cell: an ECP entry covers a whole stuck
            // cell, and an uncovered frozen cell disagrees with a
            // fresh random bit half the time.
            const unsigned covered = config_.ecpEntries;
            const unsigned exposed = state.stuckCells > covered
                ? state.stuckCells - covered : 0;
            state.stuckErrors = static_cast<std::uint16_t>(
                rngFor(line).binomial(exposed, 0.5));
            return;
        }
        // ECP patches the first n/2 stuck cells at write-verify;
        // any beyond that disagree with fresh random data unless
        // the new target happens to be the frozen level (1 in 4).
        const unsigned covered = config_.ecpEntries / 2;
        const unsigned exposed = state.stuckCells > covered
            ? state.stuckCells - covered : 0;
        state.stuckErrors = static_cast<std::uint16_t>(
            rngFor(line).binomial(exposed, 0.75));
    }
}

void
AnalyticBackend::chargeDemandExposure(LineIndex line,
                                      const LineState &state,
                                      double age_seconds)
{
    // Expected demand reads that hit the line while it was past the
    // ECC limit. The crossing age is estimated from the population
    // mean: the age at which drift alone supplies the errors the
    // stuck cells had not already used up.
    const double crossAge = state.stuckErrors < crossAges_.size()
        ? crossAges_[state.stuckErrors] : 0.0;
    const double badSeconds = std::max(0.0, age_seconds - crossAge);
    metricsFor(line).demandUncorrectable +=
        demand_.readRate(line) * badSeconds;
}

void
AnalyticBackend::materialize(LineIndex line, Tick now)
{
    LineState &state = lines_[line];
    PCMSCRUB_ASSERT(now >= state.knownTick, "time ran backwards");
    if (now == state.knownTick)
        return;
    const Tick gapStart = state.knownTick;
    const double gap = ticksToSeconds(now - state.knownTick);
    const double rate = demand_.writeRate(line);
    state.knownTick = now;
    if (gap <= 0.0)
        return;

    const std::uint64_t writes =
        rate > 0.0 ? rngFor(line).poisson(rate * gap) : 0;
    if (writes > 0) {
        // Age of the most recent of `writes` uniform arrivals.
        const double lastAge = gap *
            (1.0 - std::pow(rngFor(line).uniform(),
                            1.0 / static_cast<double>(writes)));
        const Tick writeTick = now - secondsToTicks(lastAge);

        // Before wiping state, account the exposure the overwritten
        // data may have had: grow errors to the overwrite instant.
        growDrift(line, std::max(writeTick, state.lastWrite));
        if (totalErrors(line) > 0 && sampleUncorrectable(line)) {
            chargeDemandExposure(line, state,
                                 ageSeconds(state, writeTick));
        }

        applyWear(line, state, static_cast<double>(writes));
        resetAfterWrite(line, writeTick, /*new_data=*/true);
        metricsFor(line).demandWrites += writes;
    }

    if (config_.demandReadPiggyback)
        piggybackReads(line, gapStart, now);
}

void
AnalyticBackend::piggybackReads(LineIndex line, Tick gap_start,
                                Tick now)
{
    // The data path decoded every demand read in the gap; the last
    // read after the line's current write decides whether drift was
    // caught before `now` (crossings are monotone). Any write this
    // gap contained has already reset state, so only reads landing
    // after lastWrite matter.
    LineState &state = lines_[line];
    const Tick windowStart = std::max(gap_start, state.lastWrite);
    if (now <= windowStart)
        return;
    const double window = ticksToSeconds(now - windowStart);
    const double readRate = demand_.readRate(line);
    if (readRate <= 0.0)
        return;
    const std::uint64_t reads = rngFor(line).poisson(readRate * window);
    if (reads == 0)
        return;
    const double lastAge = window *
        (1.0 - std::pow(rngFor(line).uniform(),
                        1.0 / static_cast<double>(reads)));
    const Tick readTick = now - secondsToTicks(lastAge);
    if (readTick <= state.lastWrite)
        return;

    growDrift(line, readTick);
    if (totalErrors(line) <
        config_.piggybackRewriteThreshold)
        return;

    // The read-path decode saw enough errors: refresh immediately.
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::ArrayWrite, refreshPj_);
    ++metrics.scrubRewrites;
    ++metrics.piggybackRewrites;
    const std::uint64_t corrected = state.driftErrors + weakErrors(line);
    metrics.correctedErrors += corrected;
    if (telemetry_ != nullptr) {
        telemetry_->onScrubWrite(plan_.shardOf(line), line, corrected,
                                 refreshPj_);
    }
    applyWear(line, state, 1.0);
    resetAfterWrite(line, readTick, /*new_data=*/false);
}

void
AnalyticBackend::growDrift(LineIndex line, Tick now)
{
    LineState &state = lines_[line];
    if (now <= state.lastWrite)
        return;
    // SLC storage uses the extreme levels only; drift never crosses
    // the single mid-range threshold on any simulated horizon.
    if (state.slc)
        return;
    const unsigned k = config_.weakCellsTracked;
    WeakCellMemo &memo = weakMemos_[plan_.shardOf(line)];
    if (memo.line != line || memo.lastWrite != state.lastWrite ||
        memo.now != now) {
        memo.line = line;
        memo.lastWrite = state.lastWrite;
        memo.now = now;
        memo.logAge = drift_.logAge(ageSeconds(state, now));
        std::fill(memo.crossProb.begin(), memo.crossProb.end(),
                  std::numeric_limits<double>::quiet_NaN());
    }
    const double u = memo.logAge;

    // Bulk population (speeds below the tracked-tail quantile).
    const double p2 = DriftModel::interpolateAtLogAge(*bulkTable_, u);
    if (p2 > state.pSampled) {
        const unsigned bulkCells =
            cellsPerLine_ - config_.weakCellsTracked;
        const unsigned used = state.stuckCells + state.driftErrors;
        const unsigned available =
            bulkCells > used ? bulkCells - used : 0;
        const double growth = (p2 - state.pSampled) /
            (1.0 - state.pSampled);
        state.driftErrors = static_cast<std::uint16_t>(
            state.driftErrors +
            rngFor(line).binomial(available, growth));
        state.pSampled = p2;
    }

    // Individually-tracked fast drifters, all at one log-age. A
    // repeat at this instant still draws: qSampled is a float, so it
    // can sit just under q2.
    for (unsigned j = 0; j < k; ++j) {
        WeakCell &cell = weakCells_[line * k + j];
        if (cell.crossed)
            continue;
        double &q2 = memo.crossProb[j];
        if (std::isnan(q2)) {
            q2 = drift_.levelErrorProbAtLogAge(
                cell.level, u, static_cast<double>(cell.speed));
        }
        const double q1 = static_cast<double>(cell.qSampled);
        if (q2 <= q1)
            continue;
        const double growth = (q2 - q1) / (1.0 - q1);
        if (rngFor(line).bernoulli(growth))
            cell.crossed = true;
        cell.qSampled = static_cast<float>(q2);
    }
}

bool
AnalyticBackend::sampleUncorrectable(LineIndex line)
{
    LineState &state = lines_[line];
    const unsigned total = totalErrors(line);
    if (state.uePlaced)
        return true;
    if (total <= state.ueSampledErrors)
        return false;
    // Sample the placement decision only for the new errors,
    // conditioned on having survived the previous count.
    const double pNew = scheme_.uncorrectableProb(total);
    const double pOld =
        scheme_.uncorrectableProb(state.ueSampledErrors);
    double pCond = 0.0;
    if (pOld < 1.0)
        pCond = (pNew - pOld) / (1.0 - pOld);
    state.ueSampledErrors = static_cast<std::uint16_t>(total);
    if (rngFor(line).bernoulli(pCond))
        state.uePlaced = true;
    return state.uePlaced;
}

Tick
AnalyticBackend::lastFullWrite(LineIndex line, Tick now)
{
    materialize(line, now);
    Tick tick = lines_[line].lastWrite;
    // A corrupted metadata entry feeds the policy a bogus drift age;
    // the modelled line itself is untouched.
    if (injector_ != nullptr)
        injector_->corruptLastWrite(tick, now, plan_.shardOf(line));
    return tick;
}

unsigned
AnalyticBackend::transientErrors(LineIndex line, Tick now)
{
    if (injector_ == nullptr)
        return 0;
    const std::size_t shard = plan_.shardOf(line);
    TransientMemo &memo = transients_[shard];
    if (memo.line != line || memo.tick != now) {
        memo.line = line;
        memo.tick = now;
        memo.flips = injector_->sampleReadDisturb(shard);
    }
    return memo.flips;
}

bool
AnalyticBackend::lightDetectClean(LineIndex line, Tick now)
{
    materialize(line, now);
    growDrift(line, now);
    chargeArrayRead(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Detect, energy_.lightDetect());
    ++metrics.lightDetects;

    const unsigned errors = totalErrors(line) +
        transientErrors(line, now);
    if (errors == 0)
        return true;
    if (rngFor(line).bernoulli(detector_->missProbability(errors))) {
        ++metrics.detectorMisses;
        return true;
    }
    return false;
}

bool
AnalyticBackend::eccCheckClean(LineIndex line, Tick now)
{
    materialize(line, now);
    growDrift(line, now);
    chargeArrayRead(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Decode,
                       scheme_.checkEnergy(config_.device));
    ++metrics.eccChecks;
    return totalErrors(line) + transientErrors(line, now) == 0;
}

FullDecodeOutcome
AnalyticBackend::fullDecode(LineIndex line, Tick now)
{
    materialize(line, now);
    growDrift(line, now);
    chargeArrayRead(line, now);
    metricsFor(line).energy.add(EnergyCategory::Decode,
                                scheme_.fullDecodeEnergy(config_.device));
    ++metricsFor(line).fullDecodes;

    const unsigned persistent = totalErrors(line);
    const unsigned transient = transientErrors(line, now);
    FullDecodeOutcome outcome;
    outcome.errors = persistent + transient;

    bool ue = persistent > 0 && sampleUncorrectable(line);
    if (!ue && transient > 0 && outcome.errors > 0) {
        // Transient flips land at fresh random positions each read;
        // their placement decision is sampled per visit, not sticky.
        const double p = scheme_.uncorrectableProb(outcome.errors);
        ue = p > 0.0 && rngFor(line).bernoulli(p);
    }

    if (ue) {
        // The line's exposure happened before the scrub got here,
        // whatever the ladder manages afterwards.
        chargeDemandExposure(line, lines_[line],
                             ageSeconds(lines_[line], now));
        ladder_.settle(line, now, metricsFor(line), telemetry_, *this,
                       outcome);
    } else if (outcome.errors > 0 && injector_ != nullptr &&
               injector_->sampleMiscorrection(plan_.shardOf(line))) {
        // Injected decoder fault: the "successful" correction in
        // fact settled on a wrong codeword.
        ++metricsFor(line).miscorrections;
    }
    return outcome;
}

void
AnalyticBackend::refresh(LineIndex line, Tick now, bool new_data)
{
    chargeEnergy(line, EnergyCategory::ArrayWrite, refreshPj_);
    applyWear(line, lines_[line], 1.0);
    resetAfterWrite(line, now, new_data);
}

bool
AnalyticBackend::retryRead(LineIndex line, Tick now, unsigned)
{
    // A failure not pinned on persistent errors (uePlaced) was
    // transient-driven and resolves on the first plain re-read. The
    // widened references recover drifted cells with some probability,
    // but stuck cells are immune, so a line whose stuck errors alone
    // defeat the code cannot be retried back to health.
    const LineState &state = lines_[line];
    const bool transientOnly = !state.uePlaced;
    const bool recovered = transientOnly ||
        (state.stuckErrors <= scheme_.guaranteedT() &&
         rngFor(line).bernoulli(config_.degradation.retryResolveProb));
    if (recovered)
        refresh(line, now, /*new_data=*/false);
    return recovered;
}

bool
AnalyticBackend::relearnEcp(LineIndex line, Tick now)
{
    if (config_.ecpEntries == 0)
        return false;
    LineState &state = lines_[line];
    const unsigned covered = config_.ecpEntries / 2;
    const unsigned remaining = state.stuckErrors > covered
        ? state.stuckErrors - covered : 0;
    refresh(line, now, /*new_data=*/false);
    state.stuckErrors = static_cast<std::uint16_t>(remaining);
    return remaining <= scheme_.guaranteedT();
}

void
AnalyticBackend::moveToFreshRow(LineIndex line, Tick now)
{
    LineState &state = lines_[line];
    state.stuckCells = 0;
    state.stuckErrors = 0;
    state.writes = 0.0;
    sampleWeakSpeeds(line); // New row, new drift tail.
    refresh(line, now, /*new_data=*/true);
}

bool
AnalyticBackend::dropToSlc(LineIndex line, Tick now)
{
    lines_[line].slc = true;
    refresh(line, now, /*new_data=*/true);
    return lines_[line].stuckErrors <= scheme_.guaranteedT();
}

unsigned
AnalyticBackend::marginScan(LineIndex line, Tick now)
{
    materialize(line, now);
    growDrift(line, now);
    chargeArrayRead(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::MarginRead,
                       energy_.marginReadExtra(cellsPerLine_));
    ++metrics.marginScans;

    const LineState &state = lines_[line];
    if (state.slc)
        return 0; // SLC margins never flag.
    const double age = ageSeconds(state, now);
    const double pFlag = drift_.cellMarginFlagProb(age);
    const double pError = drift_.cellErrorProb(age);
    double conditional = 0.0;
    if (pError < 1.0)
        conditional = std::min(1.0, pFlag / (1.0 - pError));
    const unsigned errored = state.stuckCells + state.driftErrors +
        weakErrors(line);
    const unsigned healthy = cellsPerLine_ > errored
        ? cellsPerLine_ - errored : 0;
    return static_cast<unsigned>(
        rngFor(line).binomial(healthy, conditional));
}

void
AnalyticBackend::scrubRewrite(LineIndex line, Tick now, bool preventive)
{
    materialize(line, now);
    growDrift(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    ++metrics.scrubRewrites;
    if (preventive)
        ++metrics.preventiveRewrites;
    const std::uint64_t corrected =
        lines_[line].driftErrors + weakErrors(line);
    metrics.correctedErrors += corrected;
    if (telemetry_ != nullptr) {
        // refresh() reports the write energy.
        telemetry_->onScrubWrite(plan_.shardOf(line), line, corrected,
                                 0.0);
    }
    // Scrub rewrites restore the *same* data: stuck cells that
    // matched keep matching, conflicting ones stay wrong.
    refresh(line, now, /*new_data=*/false);
}

void
AnalyticBackend::repairUncorrectable(LineIndex line, Tick now)
{
    materialize(line, now);
    // Recovery remaps conflicting stuck cells to spares and reloads
    // the data, so the line starts clean.
    lines_[line].stuckErrors = 0;
    refresh(line, now, /*new_data=*/false);
}

unsigned
AnalyticBackend::trueErrors(LineIndex line, Tick now)
{
    materialize(line, now);
    growDrift(line, now);
    return totalErrors(line);
}

unsigned
AnalyticBackend::stuckCells(LineIndex line) const
{
    return lines_.at(line).stuckCells;
}

double
AnalyticBackend::lineWrites(LineIndex line) const
{
    return lines_.at(line).writes;
}

void
AnalyticBackend::checkpointSave(SnapshotSink &sink) const
{
    sink.u64(lines_.size());
    for (const LineState &state : lines_) {
        sink.u64(state.knownTick);
        sink.u64(state.lastWrite);
        sink.f64(state.pSampled);
        sink.f64(state.writes);
        sink.u16(state.driftErrors);
        sink.u16(state.stuckCells);
        sink.u16(state.stuckErrors);
        sink.u16(state.ueSampledErrors);
        sink.boolean(state.uePlaced);
        sink.boolean(state.slc);
    }

    sink.u64(weakCells_.size());
    for (const WeakCell &cell : weakCells_) {
        sink.f32(cell.speed);
        sink.f32(cell.qSampled);
        sink.u8(cell.level);
        sink.boolean(cell.crossed);
    }

    saveShell(sink, [this](SnapshotSink &out, std::size_t shard) {
        const TransientMemo &memo = transients_[shard];
        out.u64(memo.line);
        out.u64(memo.tick);
        out.u32(memo.flips);
    });
}

void
AnalyticBackend::checkpointLoad(SnapshotSource &source)
{
    // The weak-cell memos describe the state being replaced.
    for (WeakCellMemo &memo : weakMemos_)
        memo.line = ~LineIndex{0};
    if (source.u64() != lines_.size())
        source.corrupt("line count does not match the config");
    const unsigned bulkCells = cellsPerLine_;
    for (LineState &state : lines_) {
        state.knownTick = source.u64();
        state.lastWrite = source.u64();
        if (state.lastWrite > state.knownTick)
            source.corrupt("line written after its materialised tick");
        state.pSampled = source.f64();
        if (!(state.pSampled >= 0.0 && state.pSampled <= 1.0))
            source.corrupt("drift probability outside [0, 1]");
        state.writes = source.f64();
        if (!(state.writes >= 0.0))
            source.corrupt("negative or NaN line write count");
        state.driftErrors = source.u16();
        state.stuckCells = source.u16();
        state.stuckErrors = source.u16();
        state.ueSampledErrors = source.u16();
        if (state.driftErrors > bulkCells || state.stuckCells > bulkCells)
            source.corrupt("more erroneous cells than the line holds");
        state.uePlaced = source.boolean();
        state.slc = source.boolean();
    }

    if (source.u64() != weakCells_.size())
        source.corrupt("weak-cell count does not match the config");
    for (WeakCell &cell : weakCells_) {
        cell.speed = source.f32();
        if (!(cell.speed > 0.0f))
            source.corrupt("non-positive weak-cell drift speed");
        cell.qSampled = source.f32();
        if (!(cell.qSampled >= 0.0f && cell.qSampled <= 1.0f))
            source.corrupt("weak-cell crossing prob outside [0, 1]");
        cell.level = source.u8();
        if (cell.level >= mlcLevels)
            source.corrupt("weak-cell level out of range");
        cell.crossed = source.boolean();
    }

    loadShell(source, [this](SnapshotSource &in, std::size_t shard) {
        TransientMemo &memo = transients_[shard];
        memo.line = in.u64();
        memo.tick = in.u64();
        memo.flips = in.u32();
    });
}

std::uint64_t
AnalyticBackend::checkpointFingerprint() const
{
    Fingerprint fp;
    fp.str("analytic-backend");
    fp.u64(config_.lines);
    fp.str(scheme_.name());
    fp.u64(static_cast<unsigned>(config_.detectorKind));
    fp.u64(config_.detectorParity);
    fp.u64(config_.weakCellsTracked);
    fp.u64(config_.ecpEntries);
    fp.u64(config_.demandReadPiggyback ? 1 : 0);
    fp.u64(config_.piggybackRewriteThreshold);
    fp.u64(config_.seed);
    fp.u64(plan_.count());
    fp.u64(static_cast<unsigned>(config_.demand.kind));
    fp.f64(config_.demand.writesPerLinePerSecond);
    fp.f64(config_.demand.readsPerLinePerSecond);
    fp.f64(config_.demand.zipfTheta);
    fp.f64(config_.demand.hotFraction);
    fp.f64(config_.demand.hotMultiplier);
    ladder_.addToFingerprint(fp);
    config_.device.addToFingerprint(fp);
    return fp.value();
}

} // namespace pcmscrub
