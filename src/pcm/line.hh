/**
 * @file
 * A memory line backed by MLC cells: the unit of scrub, ECC, and
 * rewrite. The Line itself is a thin handle — all cell state, the
 * intended codeword, and the write bookkeeping live in a CellStorage
 * (the array's shared planes for array-backed lines, a line-owned
 * single-line storage for standalone lines and SLC annexes). Tests
 * and fault injection move whole Cell values or freeze single cells;
 * the hot paths run the batched kernels over plane spans.
 */

#ifndef PCMSCRUB_PCM_LINE_HH
#define PCMSCRUB_PCM_LINE_HH

#include <memory>

#include "common/bitvector.hh"
#include "common/types.hh"
#include "pcm/cell.hh"
#include "pcm/cell_storage.hh"

namespace pcmscrub {

class Random;
class SnapshotSink;
class SnapshotSource;

/** Aggregate result of programming a line. */
struct LineProgramStats
{
    /** Cells that actually received program pulses. */
    unsigned cellsProgrammed = 0;

    /** Total program-and-verify iterations across those cells. */
    std::uint64_t totalIterations = 0;

    /** Cells that reached their endurance limit during this write. */
    unsigned cellsWornOut = 0;
};

/**
 * One ECC-protected line of MLC cells.
 */
class Line
{
  public:
    /**
     * A standalone line storing codeword_bits bits (2 per cell,
     * padded); owns its cell planes (aux mode: manufacturing state
     * comes from the caller's RNG, not a derivation stream).
     */
    explicit Line(std::size_t codeword_bits);

    /**
     * An array-backed line occupying line `line_index` of an
     * array-owned CellStorage. The storage must outlive the line and
     * its per-line stride must match this line's MLC cell count.
     */
    Line(std::size_t codeword_bits, CellStorage *storage,
         std::size_t line_index);

    Line(Line &&) = default;
    Line &operator=(Line &&) = default;

    /**
     * Fresh-silicon manufacturing state for every cell. Aux-mode
     * storage draws from `rng` (exact f32 planes); compact storage
     * advances the line's manufacturing generation instead and draws
     * nothing — the new state is derived on demand.
     */
    void initialize(const CellModel &model, Random &rng);

    std::size_t codewordBits() const { return codewordBits_; }
    unsigned cellCount() const
    {
        return static_cast<unsigned>(count_);
    }

    /**
     * Program the line to hold `codeword`.
     *
     * @param differential only program cells whose *current read
     *        value* differs from the target (data-comparison write:
     *        cheaper, but does not reset the drift clock of
     *        unchanged cells). A full write reprograms every cell
     *        and restarts all drift clocks — what a scrub refresh
     *        needs.
     */
    LineProgramStats writeCodeword(const BitVector &codeword, Tick now,
                                   const CellModel &model, Random &rng,
                                   bool differential = false);

    /**
     * Construction-time program of this (fresh, MLC, array-backed)
     * line at tick 0 via kernels::warmProgramCodeword — its own draw
     * discipline on `rng` (the backend's per-line warm-up stream),
     * an order of magnitude fewer transcendentals than
     * writeCodeword, and no per-line stats. Only valid as the very
     * first write of a line.
     */
    void warmWriteCodeword(const BitVector &codeword,
                           const CellModel &model, Random &rng);

    /**
     * Sense every cell and return the (possibly corrupted) word.
     *
     * @param threshold_shift widened-margin retry sensing; see
     *        CellModel::read()
     */
    BitVector readCodeword(Tick now, const CellModel &model,
                           double threshold_shift = 0.0) const;

    /** Number of cells the light margin read would flag. */
    unsigned marginScanCount(Tick now, const CellModel &model) const;

    /**
     * Ground truth: bit errors between what the line should hold
     * and what a read would return right now.
     */
    unsigned trueBitErrors(Tick now, const CellModel &model) const;

    /** Permanently failed cells. */
    unsigned stuckCellCount() const;

    /** The codeword the controller believes is stored. */
    BitVector intendedWord() const;

    /**
     * Bits in which `word` (codewordBits() wide) differs from the
     * intended codeword, counted against the stored words in place
     * (no intendedWord() copy). Zero means equal.
     */
    std::size_t intendedDifferences(const BitVector &word) const;

    /** Tick of the last full write (drift reference for policies). */
    Tick lastWriteTick() const
    {
        return active_->lineLastWriteTick(activeLine_);
    }

    /** Lifetime count of line-level write operations. */
    std::uint64_t lineWrites() const
    {
        return active_->lineWrites(activeLine_);
    }

    /** Copy of one cell's state (for value-based physics queries). */
    Cell cellValue(unsigned index) const
    {
        boundsCheck(index);
        return active_->loadCell(baseCell() + index);
    }

    /** Overwrite one cell's whole state (tests that pin physics). */
    void storeCell(unsigned index, const Cell &cell)
    {
        boundsCheck(index);
        active_->storeCell(baseCell() + index, cell);
    }

    /** Stuck-at fault: freeze cell `index` at `level` for good. */
    void freezeCell(unsigned index, unsigned level)
    {
        boundsCheck(index);
        active_->freeze(baseCell() + index, level);
    }

    /** Plane views over this line's cells (kernel input). */
    CellSpan span() { return active_->span(activeLine_, count_); }
    CellConstSpan span() const
    {
        return active_->constSpan(activeLine_, count_);
    }

    /**
     * Spare-remap model for repair: freeze every stuck cell at the
     * level the intended data wants, so the line reads correctly
     * again (a real controller would map the cell to a spare and
     * route accesses there).
     */
    void remapStuckToIntended();

    /**
     * Drop the line to SLC operation: one bit per cell, stored as
     * the extreme levels only (full SET / full RESET). The enormous
     * level margin makes drift effectively harmless, at the cost of
     * half the line's density — the cells of a paired line are
     * annexed to keep the codeword width. The line stays SLC for the
     * rest of its life; the caller must rewrite it afterwards.
     *
     * The annexed cells live in a line-owned aux-mode storage (the
     * array's shared planes have fixed stride); the pre-fallback cell
     * state is copied over, compact-derived fields materializing as
     * explicit floats.
     */
    void setSlcMode(const CellModel &model, Random &rng);

    /** Whether the line has fallen back to SLC operation. */
    bool slcMode() const { return slcMode_; }

    /** Heap bytes owned by this line (standalone/SLC storage). */
    std::size_t ownedBytes() const;

    /** Serialize every cell plus line-level state. */
    void saveState(SnapshotSink &sink) const;

    /**
     * Restore state written by saveState(). The line must have been
     * constructed with the same codeword width; mismatches and
     * out-of-range cell fields are fatal.
     */
    void loadState(SnapshotSource &source);

  private:
    /** Target level of cell `index` for a codeword's raw words. */
    unsigned targetLevel(const std::uint64_t *words,
                         unsigned index) const;

    /** Cells a line of this width uses in MLC mode. */
    std::size_t mlcCellCount() const
    {
        return (codewordBits_ + bitsPerCell - 1) / bitsPerCell;
    }

    std::size_t intendedWordCount() const
    {
        return (codewordBits_ + 63) / 64;
    }

    std::size_t baseCell() const
    {
        return activeLine_ * active_->cellsPerLine();
    }

    void boundsCheck(unsigned index) const;

    /**
     * Move the line onto a fresh owned single-line aux storage sized
     * for SLC (one cell per codeword bit), copying meta, intended
     * word, and the current cells' state.
     */
    void buildSlcAnnex();

    /** Point the line back at MLC storage (snapshot restores only). */
    void restoreMlcView();

    std::size_t codewordBits_;

    // Array home position (null arrayHome_ for standalone lines).
    CellStorage *arrayHome_ = nullptr;
    std::size_t arrayLine_ = 0;

    // Line-owned storage: the standalone backing store, or the SLC
    // annex of an array-backed line.
    std::unique_ptr<CellStorage> owned_;

    // Active storage: where this line's cells, intended word, and
    // write meta currently live.
    CellStorage *active_ = nullptr;
    std::size_t activeLine_ = 0;
    std::size_t count_ = 0;

    bool slcMode_ = false;
};

} // namespace pcmscrub

#endif // PCMSCRUB_PCM_LINE_HH
