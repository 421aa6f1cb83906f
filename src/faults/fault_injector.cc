#include "faults/fault_injector.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "pcm/cell.hh"

namespace pcmscrub {

FaultInjector::FaultInjector(const FaultCampaignConfig &config)
    : config_(config)
{
    if (config_.stuckPerWrite < 0.0 ||
        config_.disturbFlipsPerRead < 0.0 ||
        config_.burstProbPerRead < 0.0 ||
        config_.burstProbPerRead > 1.0 ||
        config_.miscorrectionProb < 0.0 ||
        config_.miscorrectionProb > 1.0 ||
        config_.metadataCorruptionProb < 0.0 ||
        config_.metadataCorruptionProb > 1.0)
        fatal("fault campaign rates out of range");
    if (config_.burstProbPerRead > 0.0 && config_.burstBits == 0)
        fatal("burst campaign needs burstBits >= 1");
    if (config_.disturbFlipsPerRead > 0.0)
        expNegDisturb_ = std::exp(-config_.disturbFlipsPerRead);
    shardStreams(1);
}

void
FaultInjector::shardStreams(std::size_t count)
{
    if (count == 0)
        count = 1;
    lanes_.clear();
    lanes_.reserve(count);
    for (std::size_t shard = 0; shard < count; ++shard)
        lanes_.push_back(Lane{Random::stream(config_.seed, shard), {}});
}

FaultInjector::Lane &
FaultInjector::lane(std::size_t shard)
{
    PCMSCRUB_ASSERT(shard < lanes_.size(),
                    "fault stream %zu not provisioned (have %zu)",
                    shard, lanes_.size());
    return lanes_[shard];
}

FaultInjectorStats
FaultInjector::stats() const
{
    FaultInjectorStats total;
    for (const Lane &lane : lanes_) {
        total.stuckCellsInjected += lane.stats.stuckCellsInjected;
        total.transientFlips += lane.stats.transientFlips;
        total.bursts += lane.stats.bursts;
        total.miscorrections += lane.stats.miscorrections;
        total.metadataCorruptions += lane.stats.metadataCorruptions;
        total.droppedInjections += lane.stats.droppedInjections;
    }
    return total;
}

bool
FaultInjector::enabled() const
{
    return config_.stuckPerWrite > 0.0 ||
        config_.disturbFlipsPerRead > 0.0 ||
        config_.burstProbPerRead > 0.0 ||
        config_.miscorrectionProb > 0.0 ||
        config_.metadataCorruptionProb > 0.0;
}

unsigned
FaultInjector::sampleStuckCells(double writes, double wear_fraction,
                                std::size_t shard)
{
    if (config_.stuckPerWrite <= 0.0 || writes <= 0.0)
        return 0;
    Lane &l = lane(shard);
    const double rate = config_.stuckPerWrite *
        (1.0 + config_.wearCorrelation *
                   std::clamp(wear_fraction, 0.0, 1.0));
    const unsigned injected =
        static_cast<unsigned>(l.rng.poisson(rate * writes));
    l.stats.stuckCellsInjected += injected;
    return injected;
}

unsigned
FaultInjector::sampleReadDisturb(std::size_t shard)
{
    if (config_.disturbFlipsPerRead <= 0.0 &&
        config_.burstProbPerRead <= 0.0)
        return 0;
    Lane &l = lane(shard);
    unsigned flips = 0;
    if (config_.disturbFlipsPerRead > 0.0) {
        flips += static_cast<unsigned>(l.rng.poisson(
            config_.disturbFlipsPerRead, expNegDisturb_));
    }
    if (config_.burstProbPerRead > 0.0 &&
        l.rng.bernoulli(config_.burstProbPerRead)) {
        ++l.stats.bursts;
        flips += config_.burstBits;
    }
    l.stats.transientFlips += flips;
    return flips;
}

bool
FaultInjector::sampleMiscorrection(std::size_t shard)
{
    if (config_.miscorrectionProb <= 0.0)
        return false;
    Lane &l = lane(shard);
    if (!l.rng.bernoulli(config_.miscorrectionProb))
        return false;
    ++l.stats.miscorrections;
    return true;
}

bool
FaultInjector::corruptLastWrite(Tick &tick, Tick now, std::size_t shard)
{
    if (config_.metadataCorruptionProb <= 0.0)
        return false;
    Lane &l = lane(shard);
    if (!l.rng.bernoulli(config_.metadataCorruptionProb))
        return false;
    tick = l.rng.uniformInt(now + 1);
    ++l.stats.metadataCorruptions;
    return true;
}

void
FaultInjector::corruptWord(BitVector &word, std::size_t shard)
{
    corruptSpan(word.wordData(), word.size(), shard);
}

void
FaultInjector::corruptSpan(std::uint64_t *words, std::size_t bits,
                           std::size_t shard)
{
    if (bits == 0)
        return;
    if (config_.disturbFlipsPerRead <= 0.0 &&
        config_.burstProbPerRead <= 0.0)
        return;
    Lane &l = lane(shard);
    if (config_.disturbFlipsPerRead > 0.0) {
        // One count draw per span (inversion limit hoisted), then
        // one position draw per flip, deposited straight into the
        // backing words. XOR deposits at colliding positions cancel
        // in pairs, exactly like the repeated flip() calls they
        // replace.
        const unsigned flips = static_cast<unsigned>(l.rng.poisson(
            config_.disturbFlipsPerRead, expNegDisturb_));
        for (unsigned i = 0; i < flips; ++i) {
            const std::uint64_t pos = l.rng.uniformInt(bits);
            words[pos >> 6] ^= 1ULL << (pos & 63);
        }
        l.stats.transientFlips += flips;
    }
    if (config_.burstProbPerRead > 0.0 &&
        l.rng.bernoulli(config_.burstProbPerRead)) {
        ++l.stats.bursts;
        const unsigned len = std::min<unsigned>(
            config_.burstBits, static_cast<unsigned>(
                                   std::min<std::size_t>(bits, 64)));
        const std::size_t start = l.rng.uniformInt(bits - len + 1);
        // The adjacent-bit run lands as one mask, split across the
        // word boundary when the burst straddles one.
        const std::uint64_t mask =
            len == 64 ? ~0ULL : (1ULL << len) - 1;
        const std::size_t word = start >> 6;
        const std::size_t shift = start & 63;
        words[word] ^= mask << shift;
        if (shift + len > 64)
            words[word + 1] ^= mask >> (64 - shift);
        l.stats.transientFlips += len;
    }
}

void
FaultInjector::freezeCells(Line &line, unsigned count,
                           std::size_t shard)
{
    if (count == 0)
        return;
    Lane &l = lane(shard);
    // Draw victims from the healthy population directly: one scan to
    // list the live cells, then one uniform draw per injection with
    // swap-removal. Cost is O(cells + count) at any stuck density;
    // the rejection loop this replaces needed ~1/(1-density) tries
    // per pick and gave up (dropping the rest of the injection
    // budget) after 32 misses.
    thread_local std::vector<std::uint32_t> healthy;
    healthy.clear();
    const CellConstSpan cells = std::as_const(line).span();
    for (unsigned i = 0; i < cells.count; ++i) {
        if (!cells.stuck(i))
            healthy.push_back(i);
    }
    for (unsigned injected = 0; injected < count; ++injected) {
        if (healthy.empty()) {
            const std::uint64_t dropped = count - injected;
            l.stats.droppedInjections += dropped;
            warn_once("fault campaign: dropping stuck-cell "
                      "injections on fully frozen lines (see "
                      "stats().droppedInjections)");
            return;
        }
        const std::size_t pick = l.rng.uniformInt(healthy.size());
        const std::uint32_t victim = healthy[pick];
        healthy[pick] = healthy.back();
        healthy.pop_back();
        line.freezeCell(victim, static_cast<unsigned>(
                                    l.rng.uniformInt(mlcLevels)));
    }
}

void
FaultInjector::saveState(SnapshotSink &sink) const
{
    sink.u64(lanes_.size());
    for (const auto &l : lanes_) {
        saveRandom(sink, l.rng);
        sink.u64(l.stats.stuckCellsInjected);
        sink.u64(l.stats.transientFlips);
        sink.u64(l.stats.bursts);
        sink.u64(l.stats.miscorrections);
        sink.u64(l.stats.metadataCorruptions);
        sink.u64(l.stats.droppedInjections);
    }
}

void
FaultInjector::loadState(SnapshotSource &source)
{
    if (source.u64() != lanes_.size())
        source.corrupt("fault-injector lane count does not match");
    for (auto &l : lanes_) {
        loadRandom(source, l.rng);
        l.stats.stuckCellsInjected = source.u64();
        l.stats.transientFlips = source.u64();
        l.stats.bursts = source.u64();
        l.stats.miscorrections = source.u64();
        l.stats.metadataCorruptions = source.u64();
        l.stats.droppedInjections = source.u64();
    }
}

} // namespace pcmscrub
