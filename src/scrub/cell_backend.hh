/**
 * @file
 * Cell-accurate backend: every cell simulated, real codecs decoding
 * real corrupted codewords. Slower than the analytic backend but
 * assumption-free — the test suite cross-validates the two. Every
 * visit senses every cell of the line; there is no shortcut for
 * lines that would read clean.
 *
 * Demand traffic is applied explicitly via demandWrite() (tests and
 * examples drive it); there is no lazy traffic model here, and
 * demand-read UE exposure is not estimated (metrics report scrub-
 * discovered events only).
 */

#ifndef PCMSCRUB_SCRUB_CELL_BACKEND_HH
#define PCMSCRUB_SCRUB_CELL_BACKEND_HH

#include <memory>
#include <vector>

#include "ecc/checksum.hh"
#include "ecc/code.hh"
#include "ecc/ecp.hh"
#include "pcm/array.hh"
#include "pcm/wear.hh"
#include "scrub/sharded_backend.hh"

namespace pcmscrub {

/** Configuration of a cell-accurate scrub simulation. */
struct CellBackendConfig
{
    /** Lines in the simulated array. */
    std::size_t lines = 1024;

    /** Device physics. */
    DeviceConfig device{};

    /** Line protection (realised as an actual codec). */
    EccScheme scheme = EccScheme::secdedX8();

    /** Light-detector family. */
    DetectorKind detectorKind = DetectorKind::InterleavedParity;

    /** Light-detector width (parity classes or CRC bits). */
    unsigned detectorParity = 16;

    /**
     * Error-Correcting Pointer entries per line (0 = off). Stuck
     * bits found at write-verify are patched on every read, keeping
     * the ECC budget free for drift errors.
     */
    unsigned ecpEntries = 0;

    /** RNG seed. */
    std::uint64_t seed = 1;

    /**
     * Shards the line population is partitioned into (0 = default).
     * Each shard owns an independent RNG stream derived from (seed,
     * shard), so results depend on the shard count but never on the
     * thread count executing the shards.
     */
    std::size_t shards = 0;

    /** Uncorrectable-error degradation ladder (off by default). */
    DegradationConfig degradation{};
};

/**
 * ScrubBackend over a CellArray with real encode/decode.
 */
class CellBackend : public ShardedBackend,
                    private DegradationLadder::Hooks
{
  public:
    explicit CellBackend(const CellBackendConfig &config);

    // ScrubBackend interface ---------------------------------------

    Tick lastFullWrite(LineIndex line, Tick now) override;
    bool lightDetectClean(LineIndex line, Tick now) override;
    bool eccCheckClean(LineIndex line, Tick now) override;
    FullDecodeOutcome fullDecode(LineIndex line, Tick now) override;
    unsigned marginScan(LineIndex line, Tick now) override;
    void scrubRewrite(LineIndex line, Tick now,
                      bool preventive = false) override;
    void repairUncorrectable(LineIndex line, Tick now) override;

    // Checkpointing -------------------------------------------------

    void checkpointSave(SnapshotSink &sink) const override;
    void checkpointLoad(SnapshotSource &source) override;
    std::uint64_t checkpointFingerprint() const override;

    // Cell-accurate extras ------------------------------------------

    /** Apply one demand write (fresh random payload) to a line. */
    void demandWrite(LineIndex line, Tick now);

    /** Ground-truth bit errors in a line right now. */
    unsigned trueErrors(LineIndex line, Tick now) const;

    /** The real codec in use. */
    const Code &code() const { return *code_; }

    /** Mutable cell access (callers may rewrite cell state). */
    CellArray &array() { return array_; }

    /** Read-only array access (reporting, ground-truth queries). */
    const CellArray &arrayView() const { return array_; }

    /** ECP entries consumed on a line (0 when ECP is off). */
    unsigned ecpUsed(LineIndex line) const;

  private:
    /**
     * Sense the line, charging the array read once per visit. The
     * returned reference aliases the shard's visit buffer and is
     * valid until the next readLine or reprogram on that shard.
     */
    const BitVector &readLine(LineIndex line, Tick now);

    /**
     * Sense without energy accounting (ground-truth queries, ladder
     * re-reads), thresholds raised by `threshold_shift` decades.
     */
    BitVector senseRaw(LineIndex line, Tick now,
                       double threshold_shift = 0.0) const;

    /**
     * Re-learn a line's stuck bits at write-verify time and point
     * ECP entries at them (no-op when ECP is off).
     */
    void rebuildEcp(LineIndex line, const BitVector &written);

    /**
     * Full-line program of `word`, charging wear (and scrub write
     * energy unless the write is demand traffic — demand energy is
     * not the scrub's bill).
     */
    void programLine(LineIndex line, const BitVector &word, Tick now,
                     bool scrub_energy = true);

    /** Whether the line currently senses to a decodable word. */
    bool decodes(LineIndex line, Tick now);

    /** Store the detect word of `word` as line `line`'s reference. */
    void storeDetectWord(LineIndex line, const BitVector &word);

    // DegradationLadder::Hooks: the ladder's stages on real cells.

    bool retryRead(LineIndex line, Tick now, unsigned attempt) override;
    bool relearnEcp(LineIndex line, Tick now) override;
    void moveToFreshRow(LineIndex line, Tick now) override;
    bool isSlc(LineIndex line) const override
    {
        return array_.line(line).slcMode();
    }
    bool dropToSlc(LineIndex line, Tick now) override;

    static std::unique_ptr<Code> buildCode(const EccScheme &scheme);

    /**
     * One shard's visit cache: the sensed (and possibly fault-
     * corrupted) word of its current visit. Every gate of one
     * (line, tick) visit must see the same transient flips, so the
     * word is buffered rather than re-drawn. Invalidated on reprogram.
     */
    struct VisitWord
    {
        BitVector word;
        LineIndex line = ~LineIndex{0};
        Tick tick = ~Tick{0};
    };

    CellBackendConfig config_;
    std::unique_ptr<Code> code_;
    std::unique_ptr<Detector> detector_;
    CellArray array_;
    /**
     * Reference detect words, detectStride_ words per line in one
     * flat array sized at construction (a per-line BitVector would
     * cost a header and a heap block each).
     */
    std::size_t detectStride_;
    std::vector<std::uint64_t> detectWords_;
    std::vector<EcpStore> ecp_; //!< Empty when ECP is off.
    std::vector<VisitWord> visits_; //!< One per shard.
    WearModel wear_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_CELL_BACKEND_HH
