/**
 * @file
 * Deterministic, seedable fault injection for stressing the scrub
 * and ECC stack. A FaultInjector composes five campaign ingredients:
 *
 *  - stuck-at hard faults at write time, optionally wear-correlated
 *    (injection rate rises with the line's consumed endurance);
 *  - transient read-disturb bit flips, gone on the next sensing pass;
 *  - bursty spatially-correlated multi-bit faults (adjacent bits of
 *    one sensing pass, modelling a disturbed wordline segment);
 *  - ECC decoder miscorrection (the decoder lands on the wrong
 *    codeword without noticing);
 *  - metadata corruption (last-write timestamps read back garbage,
 *    defeating drift-aware scheduling).
 *
 * The injector owns its RNG state, so a campaign is reproducible
 * from its config alone and never perturbs the backend's own random
 * stream — a run with all rates zero is bit-identical to a run with
 * no injector attached.
 *
 * Parallel engine: the injector keeps one independent counter-based
 * RNG stream (and stats slice) per shard. A backend calls
 * shardStreams() once with its shard count and then passes each
 * sampling call the shard of the line being visited, so injected
 * faults are bit-identical at any thread count. Stream 0 is the
 * default for serial callers.
 *
 * Backends consume the injector behind the ScrubBackend
 * setFaultInjector() hook, so every scrub policy, bench, and example
 * can run under fault pressure without code changes.
 */

#ifndef PCMSCRUB_FAULTS_FAULT_INJECTOR_HH
#define PCMSCRUB_FAULTS_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "pcm/line.hh"

namespace pcmscrub {

class SnapshotSink;
class SnapshotSource;

/** Rates and shapes of one fault campaign. All default to off. */
struct FaultCampaignConfig
{
    /** Expected injected stuck cells per full-line write. */
    double stuckPerWrite = 0.0;

    /**
     * Wear correlation: the stuck-injection rate is scaled by
     * (1 + wearCorrelation * wearFraction), where wearFraction is
     * the line's endurance-failure CDF from pcm/wear. 0 = uniform.
     */
    double wearCorrelation = 0.0;

    /** Expected transient (read-disturb) bit flips per line read. */
    double disturbFlipsPerRead = 0.0;

    /** Probability of a spatially-correlated burst per line read. */
    double burstProbPerRead = 0.0;

    /** Adjacent bits flipped by one burst. */
    unsigned burstBits = 4;

    /** Probability a correctable decode silently miscorrects. */
    double miscorrectionProb = 0.0;

    /** Probability a last-write metadata query returns garbage. */
    double metadataCorruptionProb = 0.0;

    /** RNG seed of the campaign (independent of the backend seed). */
    std::uint64_t seed = 1;
};

/** What the injector has done so far (ground-truth bookkeeping). */
struct FaultInjectorStats
{
    std::uint64_t stuckCellsInjected = 0;
    std::uint64_t transientFlips = 0;
    std::uint64_t bursts = 0;
    std::uint64_t miscorrections = 0;
    std::uint64_t metadataCorruptions = 0;

    /**
     * Stuck injections requested by the campaign but not landed
     * because the target line had no healthy cell left. Ground truth
     * for saturated-line campaigns: the effective injected density
     * is stuckCellsInjected net of these.
     */
    std::uint64_t droppedInjections = 0;
};

/**
 * Deterministic fault-campaign engine.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultCampaignConfig &config);

    const FaultCampaignConfig &config() const { return config_; }

    /** Aggregate stats over all shard streams (shard order). */
    FaultInjectorStats stats() const;

    /** True when any campaign ingredient has a non-zero rate. */
    bool enabled() const;

    /**
     * Provision `count` independent per-shard RNG streams (derived
     * from the campaign seed and the shard index alone). Existing
     * draws/stats are discarded; call before the campaign starts.
     * Growing the stream count never changes streams that already
     * existed.
     */
    void shardStreams(std::size_t count);

    // Sampling primitives (analytic backend) ------------------------

    /**
     * Stuck cells to inject for `writes` full-line writes at the
     * given wear fraction (endurance-failure CDF, [0, 1]).
     */
    unsigned sampleStuckCells(double writes, double wear_fraction,
                              std::size_t shard = 0);

    /**
     * Transient bit flips for one sensing pass (read disturb plus
     * any burst). The flips exist only for this read.
     */
    unsigned sampleReadDisturb(std::size_t shard = 0);

    /** One decoder-miscorrection trial for a correctable decode. */
    bool sampleMiscorrection(std::size_t shard = 0);

    /**
     * Maybe corrupt a last-write timestamp in place (garbage in
     * [0, now]).
     *
     * @return true when the value was corrupted
     */
    bool corruptLastWrite(Tick &tick, Tick now, std::size_t shard = 0);

    // Cell-accurate helpers -----------------------------------------

    /**
     * Apply one sensing pass's transient faults to a read word:
     * independent read-disturb flips plus an adjacent-bit burst.
     * Wrapper over corruptSpan() on the word's backing storage.
     */
    void corruptWord(BitVector &word, std::size_t shard = 0);

    /**
     * Span-level batch form of corruptWord(): samples the disturb
     * count once per visited span with the campaign rate's inversion
     * limit precomputed, then deposits disturb and burst flips as
     * word-level XOR masks into the raw codeword buffer. Draw-order
     * identical to the historical per-flip loop — the same poisson /
     * uniformInt / bernoulli sequence is consumed, only the bit
     * deposits batch (XOR masks cancel duplicates exactly like
     * repeated single-bit flips). Bits past `bits` are never touched,
     * so a BitVector tail invariant survives.
     */
    void corruptSpan(std::uint64_t *words, std::size_t bits,
                     std::size_t shard = 0);

    /**
     * Freeze `count` not-yet-stuck cells of a line at a random
     * level (stuck-at-SET/RESET hard faults). Victims are drawn from
     * the healthy population directly (one scan, then one draw per
     * injection with swap-removal), so high stuck densities cost the
     * same as low ones; historical rejection sampling spun on dense
     * lines and silently dropped the remainder after 32 misses.
     * Injections that cannot land because the line has no healthy
     * cell left are counted in stats().droppedInjections.
     */
    void freezeCells(Line &line, unsigned count, std::size_t shard = 0);

    /** Serialize every lane's RNG stream and stats slice. */
    void saveState(SnapshotSink &sink) const;

    /**
     * Restore lanes written by saveState(); the lane count must
     * match the current provisioning (call shardStreams() first).
     */
    void loadState(SnapshotSource &source);

  private:
    /** One shard's private RNG stream and stats slice. */
    struct Lane
    {
        Random rng;
        FaultInjectorStats stats;
    };

    Lane &lane(std::size_t shard);

    FaultCampaignConfig config_;

    /**
     * exp(-disturbFlipsPerRead), computed once at construction and
     * passed to the cached-limit poisson overload so span sampling
     * does not pay a transcendental per visited span. Unused (and
     * ignored by the overload) for rates >= 30.
     */
    double expNegDisturb_ = 1.0;

    std::vector<Lane> lanes_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_FAULTS_FAULT_INJECTOR_HH
