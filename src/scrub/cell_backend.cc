#include "scrub/cell_backend.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "ecc/bch.hh"
#include "ecc/interleaved.hh"
#include "ecc/secded.hh"
#include "faults/fault_injector.hh"

namespace pcmscrub {

std::unique_ptr<Code>
CellBackend::buildCode(const EccScheme &scheme)
{
    if (scheme.kind() == EccKind::SecdedInterleaved) {
        return std::make_unique<InterleavedCode>(
            std::make_unique<SecdedCode>(64), 8);
    }
    return std::make_unique<BchCode>(512, scheme.guaranteedT());
}

CellBackend::CellBackend(const CellBackendConfig &config)
    : config_(config),
      scheme_(config.scheme),
      drift_(config.device),
      code_(buildCode(config.scheme)),
      detector_(makeDetector(config.detectorKind,
                             code_->codewordBits(),
                             config.detectorParity, bitsPerCell)),
      energyModel_(config.device),
      array_(config.lines, code_->codewordBits(), config.device,
             config.seed),
      plan_(config.lines, config.shards),
      wear_(config.device),
      ladder_(config.degradation, plan_,
              energyModel_.marginReadExtra(cellsPerLine()),
              code_->codewordBits())
{
    shards_.resize(plan_.count());
    for (std::size_t shard = 0; shard < plan_.count(); ++shard)
        shards_[shard].rng = Random::stream(config.seed, shard);
    if (config.ecpEntries > 0) {
        ecp_.assign(config.lines,
                    EcpStore(code_->codewordBits(),
                             config.ecpEntries));
    }

    // Warm up: every line holds an encoded random payload. Each line
    // draws its payload and program noise from its own counter-based
    // stream (ids offset past the array's (1 << 32) + line write
    // streams), so the result is bit-identical at any thread count,
    // and the batched warm kernel writes the quantized planes
    // directly — construction is the 10^7-line benchmark's dominant
    // cost, so it gets its own draw discipline instead of the generic
    // program path.
    detectWords_.resize(config.lines);
    ThreadPool::global().run(config.lines, [&](std::size_t i) {
        Random rng = Random::stream(config.seed, (2ULL << 32) + i);
        BitVector data(code_->dataBits());
        data.randomize(rng);
        const BitVector word = code_->encode(data);
        array_.line(i).warmWriteCodeword(word, array_.model(), rng);
        detectWords_[i] = detector_->compute(word);
    });

}

std::uint64_t
CellBackend::lineCount() const
{
    return array_.lineCount();
}

unsigned
CellBackend::cellsPerLine() const
{
    // The array's MLC geometry, not any one line's: a line dropped to
    // SLC uses one cell per bit, and line 0 may be such a line.
    return static_cast<unsigned>(
        (array_.codewordBits() + bitsPerCell - 1) / bitsPerCell);
}

BitVector
CellBackend::senseRaw(LineIndex line, Tick now,
                      double threshold_shift) const
{
    BitVector word = array_.line(line).readCodeword(now, array_.model(),
                                                    threshold_shift);
    if (!ecp_.empty())
        ecp_[line].apply(word);
    return word;
}

void
CellBackend::chargeArrayRead(LineIndex line, Tick now)
{
    ShardState &shard = shardFor(line);
    if (shard.chargedLine != line || shard.chargedTick != now) {
        shard.chargedLine = line;
        shard.chargedTick = now;
        const double pj = energyModel_.lineRead(cellsPerLine());
        shard.metrics.energy.add(EnergyCategory::ArrayRead, pj);
        if (telemetry_ != nullptr)
            telemetry_->onEnergy(plan_.shardOf(line), line, pj);
    }
}

const BitVector &
CellBackend::readLine(LineIndex line, Tick now)
{
    ShardState &shard = shardFor(line);
    chargeArrayRead(line, now);
    // Buffer the sensed word per (line, tick): injected transient
    // flips must look identical to every gate of the same visit.
    if (shard.bufferedLine != line || shard.bufferedTick != now) {
        shard.bufferedLine = line;
        shard.bufferedTick = now;
        shard.buffered = senseRaw(line, now);
        if (injector_ != nullptr)
            injector_->corruptWord(shard.buffered, plan_.shardOf(line));
    }
    return shard.buffered;
}

void
CellBackend::rebuildEcp(LineIndex line, const BitVector &written)
{
    if (ecp_.empty())
        return;
    // Write-verify knows exactly which cells refused the new data;
    // point ECP entries at the conflicting bits. Entries are
    // re-derived per write (the replacement bits are data).
    EcpStore &store = ecp_[line];
    store.clear();
    const Line &physical = array_.line(line);
    if (physical.slcMode()) {
        // One bit per cell; a stuck cell holds the bit of whichever
        // extreme its frozen level is closer to.
        for (unsigned i = 0; i < physical.cellCount(); ++i) {
            const auto cell = physical.cell(i);
            if (!cell.stuck || i >= written.size())
                continue;
            const bool stuckBit = cell.stuckLevel >= mlcLevels / 2;
            const bool wantBit = written.get(i);
            if (stuckBit != wantBit && !store.assign(i, wantBit))
                return;
        }
        return;
    }
    for (unsigned i = 0; i < physical.cellCount(); ++i) {
        const auto cell = physical.cell(i);
        if (!cell.stuck)
            continue;
        const std::uint8_t gray = levelToGray(cell.stuckLevel);
        for (unsigned b = 0; b < bitsPerCell; ++b) {
            const std::size_t bit =
                static_cast<std::size_t>(i) * bitsPerCell + b;
            if (bit >= written.size())
                break;
            const bool stuckBit = (gray >> b) & 1;
            const bool wantBit = written.get(bit);
            if (stuckBit != wantBit && !store.assign(bit, wantBit))
                return; // Exhausted: remaining conflicts stay raw.
        }
    }
}

void
CellBackend::programLine(LineIndex line, const BitVector &word,
                         Tick now, bool scrub_energy)
{
    ShardState &shard = shardFor(line);
    Line &physical = array_.line(line);
    const LineProgramStats stats = physical.writeCodeword(
        word, now, array_.model(), shard.rng);
    if (scrub_energy) {
        const double pj = energyModel_.lineWrite(stats.totalIterations);
        shard.metrics.energy.add(EnergyCategory::ArrayWrite, pj);
        if (telemetry_ != nullptr)
            telemetry_->onEnergy(plan_.shardOf(line), line, pj);
    }
    shard.metrics.cellsWornOut += stats.cellsWornOut;
    // Injected wear-correlated hard faults strike at program time,
    // before write-verify: rebuildEcp below then discovers them the
    // same way it discovers organic endurance failures.
    if (injector_ != nullptr) {
        const std::size_t shardId = plan_.shardOf(line);
        const unsigned frozen = injector_->sampleStuckCells(
            1.0, wear_.failureCdf(
                     static_cast<double>(physical.lineWrites())),
            shardId);
        if (frozen > 0)
            injector_->freezeCells(physical, frozen, shardId);
    }
    detectWords_[line] = detector_->compute(word);
    rebuildEcp(line, word);
    // The visit buffer and the read-charge dedup are both stale the
    // moment the cells change: a re-read after a mid-visit reprogram
    // is a fresh sensing pass and must charge again even at the same
    // tick.
    shard.bufferedLine = ~LineIndex{0};
    shard.chargedLine = ~LineIndex{0};
}

unsigned
CellBackend::ecpUsed(LineIndex line) const
{
    return ecp_.empty() ? 0 : ecp_[line].used();
}

Tick
CellBackend::lastFullWrite(LineIndex line, Tick now)
{
    Tick tick = array_.line(line).lastWriteTick();
    // A corrupted metadata entry feeds the policy a bogus drift age;
    // the physical line is untouched.
    if (injector_ != nullptr)
        injector_->corruptLastWrite(tick, now, plan_.shardOf(line));
    return tick;
}

bool
CellBackend::lightDetectClean(LineIndex line, Tick now)
{
    const BitVector &read = readLine(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Detect,
                       energyModel_.lightDetect());
    ++metrics.lightDetects;
    const bool clean = detector_->compute(read) == detectWords_[line];
    if (clean &&
        read != array_.line(line).intendedWord()) {
        ++metrics.detectorMisses;
    }
    return clean;
}

bool
CellBackend::eccCheckClean(LineIndex line, Tick now)
{
    const BitVector &read = readLine(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Decode,
                       scheme_.checkEnergy(config_.device));
    ++metrics.eccChecks;
    return code_->check(read);
}

FullDecodeOutcome
CellBackend::fullDecode(LineIndex line, Tick now)
{
    BitVector word = readLine(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::Decode,
                       scheme_.fullDecodeEnergy(config_.device));
    ++metrics.fullDecodes;

    const DecodeResult result = code_->decode(word);
    FullDecodeOutcome outcome;
    switch (result.status) {
      case DecodeStatus::Clean:
        break;
      case DecodeStatus::Corrected:
        outcome.errors = result.correctedBits;
        if (word != array_.line(line).intendedWord()) {
            // Decoder landed on the wrong codeword: silent data
            // corruption the scrub cannot see (ground truth can).
            ++metrics.miscorrections;
        } else if (injector_ != nullptr &&
                   injector_->sampleMiscorrection(
                       plan_.shardOf(line))) {
            // Injected decoder fault: the hardware reported a clean
            // correction but actually settled on a wrong codeword.
            ++metrics.miscorrections;
        }
        break;
      case DecodeStatus::Uncorrectable:
        outcome.errors = trueErrors(line, now);
        ladder_.settle(line, now, metrics, telemetry_, *this, outcome);
        break;
    }
    return outcome;
}

bool
CellBackend::decodes(LineIndex line, Tick now)
{
    BitVector word = senseRaw(line, now);
    return code_->decode(word).status != DecodeStatus::Uncorrectable;
}

bool
CellBackend::retryRead(LineIndex line, Tick now, unsigned attempt)
{
    BitVector word = senseRaw(
        line, now, config_.degradation.retryMarginWiden * attempt);
    if (code_->decode(word).status == DecodeStatus::Uncorrectable)
        return false;
    if (word != array_.line(line).intendedWord()) {
        // The retry "recovered" a wrong codeword; from here on the
        // controller faithfully preserves bad data.
        ++metricsFor(line).miscorrections;
    }
    // Refresh with the recovered word (decode corrected it in place);
    // this is ladder-internal, not a scrub rewrite.
    programLine(line, word, now);
    return true;
}

bool
CellBackend::relearnEcp(LineIndex line, Tick now)
{
    if (ecp_.empty())
        return false;
    programLine(line, array_.line(line).intendedWord(), now);
    return decodes(line, now);
}

void
CellBackend::moveToFreshRow(LineIndex line, Tick now)
{
    Line &physical = array_.line(line);
    physical.initialize(array_.model(), rngFor(line));
    programLine(line, physical.intendedWord(), now);
}

bool
CellBackend::dropToSlc(LineIndex line, Tick now)
{
    Line &physical = array_.line(line);
    physical.setSlcMode(array_.model(), rngFor(line));
    programLine(line, physical.intendedWord(), now);
    return decodes(line, now);
}

unsigned
CellBackend::marginScan(LineIndex line, Tick now)
{
    readLine(line, now); // Margin read includes the sensing pass.
    ScrubMetrics &metrics = metricsFor(line);
    metrics.energy.add(EnergyCategory::MarginRead,
                       energyModel_.marginReadExtra(cellsPerLine()));
    ++metrics.marginScans;
    return array_.line(line).marginScanCount(now, array_.model());
}

void
CellBackend::scrubRewrite(LineIndex line, Tick now, bool preventive)
{
    const unsigned before = trueErrors(line, now);
    programLine(line, array_.line(line).intendedWord(), now);
    const unsigned after = trueErrors(line, now);
    ScrubMetrics &metrics = metricsFor(line);
    ++metrics.scrubRewrites;
    if (preventive)
        ++metrics.preventiveRewrites;
    const std::uint64_t corrected = before > after ? before - after : 0;
    metrics.correctedErrors += corrected;
    if (telemetry_ != nullptr) {
        // Write energy already flowed through programLine's hook.
        telemetry_->onScrubWrite(plan_.shardOf(line), line, corrected,
                                 0.0);
    }
}

void
CellBackend::repairUncorrectable(LineIndex line, Tick now)
{
    programLine(line, array_.line(line).intendedWord(), now);
    // Remap still-conflicting stuck cells to spares; the stale ECP
    // entries are then unnecessary (and would mis-patch).
    array_.line(line).remapStuckToIntended();
    if (!ecp_.empty())
        ecp_[line].clear();
}

void
CellBackend::noteVisit(LineIndex line, Tick now)
{
    PCMSCRUB_ASSERT(line < lineCount(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    (void)now;
    ++metricsFor(line).linesChecked;
}

void
CellBackend::demandWrite(LineIndex line, Tick now)
{
    BitVector data(code_->dataBits());
    data.randomize(rngFor(line));
    programLine(line, code_->encode(data), now,
                /*scrub_energy=*/false);
    ++metricsFor(line).demandWrites;
}

void
CellBackend::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    if (injector_ != nullptr)
        injector_->shardStreams(plan_.count());
}

void
CellBackend::setTelemetry(RegionTelemetry *telemetry)
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
CellBackend::metrics() const
{
    merged_ = ScrubMetrics{};
    for (const ShardState &shard : shards_)
        merged_.merge(shard.metrics);
    ladder_.mergeGauges(merged_);
    return merged_;
}

ScrubMetrics &
CellBackend::metrics()
{
    const CellBackend *self = this;
    return const_cast<ScrubMetrics &>(self->metrics());
}

unsigned
CellBackend::trueErrors(LineIndex line, Tick now) const
{
    // Ground truth as the controller would see it: after ECP
    // patching, before ECC.
    const BitVector read = senseRaw(line, now);
    return static_cast<unsigned>(
        read.countDifferences(array_.line(line).intendedWord()));
}

void
CellBackend::checkpointSave(SnapshotSink &sink) const
{
    array_.saveState(sink);

    sink.u64(ecp_.size());
    for (const auto &store : ecp_)
        store.saveState(sink);

    sink.u64(shards_.size());
    for (const auto &shard : shards_) {
        saveRandom(sink, shard.rng);
        shard.metrics.saveState(sink);
        sink.u64(shard.chargedLine);
        sink.u64(shard.chargedTick);
        sink.bits(shard.buffered);
        sink.u64(shard.bufferedLine);
        sink.u64(shard.bufferedTick);
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
CellBackend::checkpointLoad(SnapshotSource &source)
{
    array_.loadState(source);

    if (source.u64() != ecp_.size())
        source.corrupt("ECP store count does not match the config");
    for (auto &store : ecp_)
        store.loadState(source);

    if (source.u64() != shards_.size())
        source.corrupt("shard count does not match the shard plan");
    for (auto &shard : shards_) {
        loadRandom(source, shard.rng);
        shard.metrics.loadState(source);
        shard.chargedLine = source.u64();
        shard.chargedTick = source.u64();
        shard.buffered = source.bits();
        if (!shard.buffered.empty() &&
            shard.buffered.size() != code_->codewordBits())
            source.corrupt("buffered visit word has the wrong width");
        shard.bufferedLine = source.u64();
        shard.bufferedTick = source.u64();
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

    // Detector reference words are a pure function of the intended
    // codewords, so recompute rather than trust serialized copies.
    for (std::size_t i = 0; i < detectWords_.size(); ++i)
        detectWords_[i] =
            detector_->compute(array_.line(i).intendedWord());
}

std::uint64_t
CellBackend::checkpointFingerprint() const
{
    Fingerprint fp;
    fp.str("cell-backend");
    fp.u64(config_.lines);
    fp.str(scheme_.name());
    fp.u64(static_cast<unsigned>(config_.detectorKind));
    fp.u64(config_.detectorParity);
    fp.u64(config_.ecpEntries);
    fp.u64(config_.seed);
    fp.u64(plan_.count());
    ladder_.addToFingerprint(fp);
    config_.device.addToFingerprint(fp);
    return fp.value();
}

} // namespace pcmscrub
