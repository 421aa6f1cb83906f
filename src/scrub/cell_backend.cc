#include "scrub/cell_backend.hh"

#include <algorithm>

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
    : ShardedBackend(config.lines, config.shards, config.seed,
                     config.scheme, config.device, config.degradation),
      config_(config),
      code_(buildCode(config.scheme)),
      detector_(makeDetector(config.detectorKind,
                             code_->codewordBits(),
                             config.detectorParity, bitsPerCell)),
      array_(config.lines, code_->codewordBits(), config.device,
             config.seed),
      detectStride_((detector_->storedBits() + 63) / 64),
      detectWords_(config.lines * detectStride_),
      visits_(plan_.count()),
      wear_(config.device)
{
    PCMSCRUB_ASSERT(code_->codewordBits() == scheme_.codewordBits(),
                    "%s codec stores %zu bits, the scheme %u",
                    scheme_.name().c_str(),
                    static_cast<std::size_t>(code_->codewordBits()),
                    scheme_.codewordBits());
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
    ThreadPool::global().run(config.lines, [&](std::size_t i) {
        Random rng = Random::stream(config.seed, (2ULL << 32) + i);
        BitVector data(code_->dataBits());
        data.randomize(rng);
        const BitVector word = code_->encode(data);
        array_.line(i).warmWriteCodeword(word, array_.model(), rng);
        storeDetectWord(i, word);
    });

}

void
CellBackend::storeDetectWord(LineIndex line, const BitVector &word)
{
    const BitVector detect = detector_->compute(word);
    std::copy(detect.words().begin(), detect.words().end(),
              detectWords_.begin() +
                  static_cast<std::ptrdiff_t>(line * detectStride_));
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

const BitVector &
CellBackend::readLine(LineIndex line, Tick now)
{
    chargeArrayRead(line, now);
    // Buffer the sensed word per (line, tick): injected transient
    // flips must look identical to every gate of the same visit.
    const std::size_t shard = plan_.shardOf(line);
    VisitWord &visit = visits_[shard];
    if (visit.line != line || visit.tick != now) {
        visit.line = line;
        visit.tick = now;
        visit.word = senseRaw(line, now);
        if (injector_ != nullptr)
            injector_->corruptWord(visit.word, shard);
    }
    return visit.word;
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
    const CellConstSpan cells = physical.span();
    if (physical.slcMode()) {
        // One bit per cell; a stuck cell holds the bit of whichever
        // extreme its frozen level is closer to.
        for (unsigned i = 0; i < cells.count; ++i) {
            if (!cells.stuck(i) || i >= written.size())
                continue;
            const bool stuckBit = cells.levelAt(i) >= mlcLevels / 2;
            const bool wantBit = written.get(i);
            if (stuckBit != wantBit && !store.assign(i, wantBit))
                return;
        }
        return;
    }
    for (unsigned i = 0; i < cells.count; ++i) {
        if (!cells.stuck(i))
            continue;
        const unsigned gray = cells.grayAt(i);
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
    Line &physical = array_.line(line);
    const LineProgramStats stats = physical.writeCodeword(
        word, now, array_.model(), rngFor(line));
    if (scrub_energy) {
        chargeEnergy(line, EnergyCategory::ArrayWrite,
                     energy_.lineWrite(stats.totalIterations));
    }
    metricsFor(line).cellsWornOut += stats.cellsWornOut;
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
    storeDetectWord(line, word);
    rebuildEcp(line, word);
    // The visit buffer and the read-charge dedup are both stale the
    // moment the cells change: a re-read after a mid-visit reprogram
    // is a fresh sensing pass and must charge again even at the same
    // tick.
    visits_[plan_.shardOf(line)].line = ~LineIndex{0};
    forgetArrayRead(line);
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
    metrics.energy.add(EnergyCategory::Detect, energy_.lightDetect());
    ++metrics.lightDetects;
    const BitVector detect = detector_->compute(read);
    const bool clean = std::equal(
        detect.words().begin(), detect.words().end(),
        detectWords_.begin() +
            static_cast<std::ptrdiff_t>(line * detectStride_));
    if (clean && array_.line(line).intendedDifferences(read) != 0)
        ++metrics.detectorMisses;
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
        if (array_.line(line).intendedDifferences(word) != 0) {
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
    if (array_.line(line).intendedDifferences(word) != 0) {
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
                       energy_.marginReadExtra(cellsPerLine_));
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
CellBackend::demandWrite(LineIndex line, Tick now)
{
    BitVector data(code_->dataBits());
    data.randomize(rngFor(line));
    programLine(line, code_->encode(data), now,
                /*scrub_energy=*/false);
    ++metricsFor(line).demandWrites;
}

unsigned
CellBackend::trueErrors(LineIndex line, Tick now) const
{
    // Ground truth as the controller would see it: after ECP
    // patching, before ECC.
    return static_cast<unsigned>(
        array_.line(line).intendedDifferences(senseRaw(line, now)));
}

void
CellBackend::checkpointSave(SnapshotSink &sink) const
{
    array_.saveState(sink);

    sink.u64(ecp_.size());
    for (const auto &store : ecp_)
        store.saveState(sink);

    saveShell(sink, [this](SnapshotSink &out, std::size_t shard) {
        const VisitWord &visit = visits_[shard];
        out.bits(visit.word);
        out.u64(visit.line);
        out.u64(visit.tick);
    });
}

void
CellBackend::checkpointLoad(SnapshotSource &source)
{
    array_.loadState(source);

    if (source.u64() != ecp_.size())
        source.corrupt("ECP store count does not match the config");
    for (auto &store : ecp_)
        store.loadState(source);

    loadShell(source, [this](SnapshotSource &in, std::size_t shard) {
        VisitWord &visit = visits_[shard];
        visit.word = in.bits();
        if (!visit.word.empty() &&
            visit.word.size() != code_->codewordBits())
            in.corrupt("buffered visit word has the wrong width");
        visit.line = in.u64();
        visit.tick = in.u64();
    });

    // Detector reference words are a pure function of the intended
    // codewords, so recompute rather than trust serialized copies.
    for (std::size_t i = 0; i < config_.lines; ++i)
        storeDetectWord(i, array_.line(i).intendedWord());
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
