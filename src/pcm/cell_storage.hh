/**
 * @file
 * Quantized structure-of-arrays cell storage.
 *
 * PR 5 turned cell state into nine contiguous f32/u32/u8/u64 planes
 * (~31 B per cell); this version puts the planes on a diet. Resident
 * state per cell is now three bytes-ish:
 *
 *   - `logRq`  (u8)  quantized logR0 delta from the level mean
 *   - `nuIdx`  (u8)  log-scale drift-exponent index; 255 = stuck
 *   - `gray`   (2b)  packed Gray code of the level the cell sits at
 *                    (the frozen level once stuck)
 *
 * plus per-LINE metadata (intended-codeword words, last write tick,
 * line write count, manufacturing generation) and two lazily
 * materialized structures:
 *
 *   - manufacturing state (`nuSpeed`, `enduranceWrites`) is derived
 *     on demand from a counter-based stream keyed by (seed, global
 *     cell index, line generation) in compact mode, or held in
 *     explicit f32 aux planes for standalone/annex storage whose
 *     cells were initialized from a caller RNG;
 *   - per-cell `writes`/`writeTick` are line-uniform after clean full
 *     writes (they equal lineWrites/lastWriteTick) and only get a
 *     per-line overlay (exact u32+u64 per cell) once a differential
 *     write, a stuck cell, or a direct store makes them diverge. The
 *     overlay is dropped again when every cell matches the uniform
 *     values. No overlay => every cell provably equals the uniform
 *     values, so the compression never changes an observable value.
 *
 * Per-cell access moves whole Cell values (loadCell()/storeCell());
 * encode/decode happens inside them. Quantization DOES change
 * computed bits vs the f32 planes (the determinism contract is
 * re-pinned at this encoding); what stays exact is that every reader
 * — scalar kernel, SIMD kernel, per-cell CellModel call — sees the
 * identical decoded float.
 *
 * Thread-safety contract: distinct lines may be mutated concurrently
 * (overlay slots, meta, and plane ranges are per-line); anything
 * touching one line is single-threaded, as with the old planes.
 */

#ifndef PCMSCRUB_PCM_CELL_STORAGE_HH
#define PCMSCRUB_PCM_CELL_STORAGE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hh"
#include "pcm/cell.hh"
#include "pcm/quant.hh"

namespace pcmscrub {

class BitVector;
class CellStorage;

/** Per-line exact write bookkeeping, materialized only on skew. */
struct WriteOverlay
{
    std::vector<std::uint32_t> writes;
    std::vector<Tick> ticks;
};

/**
 * Read-only plane pointers for one line's cells — what the batched
 * sense/margin kernels (scalar and SIMD) iterate. Indices are local
 * to the line; the gray plane is per-line byte aligned so `gray`
 * always starts the line at bit 0.
 */
struct CellConstSpan
{
    const std::uint8_t *logRq;
    const std::uint8_t *nuIdx;
    const std::uint8_t *gray;
    const QuantSpec *spec;
    std::size_t count;
    Tick uniformTick;
    std::uint64_t uniformWrites;
    /** Null when the line has no overlay (uniform write state). */
    const Tick *ovTicks;
    const std::uint32_t *ovWrites;

    bool stuck(std::size_t i) const
    {
        return nuIdx[i] == QuantSpec::kStuckNuIdx;
    }

    unsigned grayAt(std::size_t i) const
    {
        return (gray[i >> 2] >> ((i & 3u) * 2u)) & 3u;
    }

    unsigned levelAt(std::size_t i) const
    {
        return grayToLevel(static_cast<std::uint8_t>(grayAt(i)));
    }

    float logR0(std::size_t i) const
    {
        return spec->decodeLogR0(grayAt(i),
                                 logRq[i]);
    }

    float nu(std::size_t i) const { return spec->decodeNu(nuIdx[i]); }

    Tick writeTick(std::size_t i) const
    {
        return ovTicks != nullptr ? ovTicks[i] : uniformTick;
    }
};

/**
 * Mutable per-line handle for the program kernel: full cell
 * load/store goes through the storage (overlay- and mode-aware).
 */
struct CellSpan
{
    CellStorage *storage;
    std::size_t line;     //!< Line index within the storage.
    std::size_t baseCell; //!< Global index of the line's cell 0.
    std::size_t count;

    CellConstSpan view() const;
};

/**
 * The quantized planes plus per-line metadata and overlays.
 */
class CellStorage
{
  public:
    struct Geometry
    {
        std::size_t lines = 0;
        std::size_t cellsPerLine = 0;
        std::size_t intendedWordsPerLine = 0;

        /**
         * true: explicit f32 nuSpeed/endurance planes (standalone
         * lines and SLC annexes, whose manufacturing draws come from
         * a caller RNG). false: compact mode — manufacturing state is
         * derived from (manufSeed, cell, generation) streams.
         */
        bool auxPlanes = true;

        /** Stream seed for compact-mode manufacturing derivation. */
        std::uint64_t manufSeed = 0;
    };

    CellStorage() = default;

    void configure(const Geometry &geometry);
    bool configured() const { return cellsPerLine_ != 0; }

    std::size_t lineCount() const { return lines_; }
    std::size_t cellsPerLine() const { return cellsPerLine_; }
    std::size_t size() const { return lines_ * cellsPerLine_; }
    bool auxMode() const { return auxPlanes_; }

    /** Set the quantization spec on first model-bearing use. */
    void ensureSpec(const DeviceConfig &config);
    void copySpecFrom(const CellStorage &other);
    const QuantSpec &spec() const { return spec_; }

    /** Bytes held, including meta, overlays, aux, and intended. */
    std::size_t bytes() const;

    // ---- per-cell field access (global cell index) ----------------

    float nuSpeedOf(std::size_t i) const;
    void setNuSpeed(std::size_t i, float v);
    float enduranceOf(std::size_t i) const;
    void setEndurance(std::size_t i, float v);

    std::uint32_t writesOf(std::size_t i) const
    {
        const std::size_t line = i / cellsPerLine_;
        const WriteOverlay *ov = overlays_[line];
        return ov != nullptr
            ? ov->writes[i - line * cellsPerLine_]
            : static_cast<std::uint32_t>(lineWrites_[line]);
    }
    void setWrites(std::size_t i, std::uint32_t v);

    Tick writeTickOf(std::size_t i) const
    {
        const std::size_t line = i / cellsPerLine_;
        const WriteOverlay *ov = overlays_[line];
        return ov != nullptr ? ov->ticks[i - line * cellsPerLine_]
                             : uniformTick_[line];
    }
    void setWriteTick(std::size_t i, Tick v);

    bool stuckOf(std::size_t i) const
    {
        return nuIdx_[i] == QuantSpec::kStuckNuIdx;
    }

    /** Freeze cell `i` (stuck-at fault) at `level`. */
    void freeze(std::size_t i, unsigned level)
    {
        nuIdx_[i] = QuantSpec::kStuckNuIdx;
        setGray(i, levelToGray(static_cast<std::uint8_t>(level)));
    }

    unsigned grayAt(std::size_t i) const
    {
        const std::size_t line = i / cellsPerLine_;
        const std::size_t local = i - line * cellsPerLine_;
        const std::size_t byte =
            line * grayBytesPerLine_ + (local >> 2);
        return (gray_[byte] >> ((local & 3u) * 2u)) & 3u;
    }
    void setGray(std::size_t i, unsigned gray)
    {
        const std::size_t line = i / cellsPerLine_;
        const std::size_t local = i - line * cellsPerLine_;
        const std::size_t byte =
            line * grayBytesPerLine_ + (local >> 2);
        const unsigned shift = (local & 3u) * 2u;
        gray_[byte] = static_cast<std::uint8_t>(
            (gray_[byte] & ~(3u << shift)) | ((gray & 3u) << shift));
    }

    std::uint8_t rawLogRq(std::size_t i) const { return logRq_[i]; }
    void setRawLogRq(std::size_t i, std::uint8_t q) { logRq_[i] = q; }
    std::uint8_t rawNuIdx(std::size_t i) const { return nuIdx_[i]; }
    void setRawNuIdx(std::size_t i, std::uint8_t idx)
    {
        nuIdx_[i] = idx;
    }

    // ---- raw plane bases (batched warm-up kernel) -----------------
    //
    // One line's slice of each quantized plane, for kernels that
    // write whole lines of codes at once. Lines are byte-aligned in
    // the gray plane, so concurrent kernels on distinct lines never
    // touch the same byte.

    std::uint8_t *rawLogRqData(std::size_t line)
    {
        return logRq_.data() + line * cellsPerLine_;
    }
    std::uint8_t *rawNuIdxData(std::size_t line)
    {
        return nuIdx_.data() + line * cellsPerLine_;
    }
    std::uint8_t *grayData(std::size_t line)
    {
        return gray_.data() + line * grayBytesPerLine_;
    }
    const std::uint8_t *grayData(std::size_t line) const
    {
        return gray_.data() + line * grayBytesPerLine_;
    }

    /**
     * Aux-plane slices (auxMode() only): the stored manufacturing
     * floats of one line, for batched kernels that read them
     * directly instead of through per-cell accessors.
     */
    const float *rawNuSpeedData(std::size_t line) const
    {
        return nuSpeedAux_.data() + line * cellsPerLine_;
    }
    const float *rawEnduranceData(std::size_t line) const
    {
        return enduranceAux_.data() + line * cellsPerLine_;
    }

    /**
     * Manufacturing stream of cell `i` at its current generation —
     * the stream deriveManufacturing draws endurance and drift speed
     * from, exposed so the warm-up kernel can consume the same draws
     * in the log domain.
     */
    Random manufStream(std::size_t i) const;

    /**
     * Stream-id half of manufStream() with the cell's line supplied
     * by the caller, hoisting the line division out of per-cell
     * loops; pair with manufSeed() via Random::stream.
     */
    std::uint64_t manufStreamId(std::size_t i, std::size_t line) const
    {
        return kManufStreamBase +
            (static_cast<std::uint64_t>(i) << 8) + generation_[line];
    }

    std::uint64_t manufSeed() const { return manufSeed_; }

    /** Full Cell value (derives manufacturing state if compact). */
    Cell loadCell(std::size_t i) const;

    /**
     * Cell value without the manufacturing fields (nuSpeed = 1,
     * enduranceWrites = 0): everything read/marginFlagged touch,
     * skipping the derivation cost. Not valid for program().
     */
    Cell loadPhysics(std::size_t i) const;

    void storeCell(std::size_t i, const Cell &cell);

    /**
     * Store only the sensing-relevant fields (gray, logR0, nu, stuck,
     * aux if present) — the program kernel's fast path, which keeps
     * writes/writeTick virtual on overlay-free full writes.
     */
    void storePhysics(std::size_t i, const Cell &cell);

    /** Copy one cell across storages (modes may differ). */
    void copyCell(const CellStorage &source, std::size_t from,
                  std::size_t to);

    // ---- per-line metadata ----------------------------------------

    Tick lineLastWriteTick(std::size_t line) const
    {
        return uniformTick_[line];
    }
    std::uint64_t lineWrites(std::size_t line) const
    {
        return lineWrites_[line];
    }
    void setLineMeta(std::size_t line, Tick last_write,
                     std::uint64_t writes)
    {
        uniformTick_[line] = last_write;
        lineWrites_[line] = writes;
    }

    /** Record a line-level write: new uniform tick, count + 1. */
    void bumpLineWrite(std::size_t line, Tick now)
    {
        uniformTick_[line] = now;
        ++lineWrites_[line];
    }

    std::uint8_t generation(std::size_t line) const
    {
        return generation_[line];
    }
    void setGeneration(std::size_t line, std::uint8_t generation)
    {
        generation_[line] = generation;
    }

    /**
     * Compact-mode fresh-silicon re-roll: advance the line's
     * manufacturing generation (new derived endurance/nuSpeed for
     * every cell), clear stuck flags, and zero per-cell write counts
     * (per-cell drift clocks and the line-level counters keep their
     * values, as the plane-based initialize did).
     */
    void reinitializeCompactLine(std::size_t line);

    // ---- overlays -------------------------------------------------
    //
    // Overlay nodes come from a storage-owned slab pool: divergence
    // churn (materialize on a differential write or stuck cell, drop
    // again once the line re-uniformizes) recycles nodes — and their
    // vector capacity — through a free list instead of hitting the
    // allocator per transition. Slabs live in a deque, so node
    // addresses are stable for the lifetime of the storage; the free
    // list is mutex-guarded because concurrently-running shards
    // materialize overlays on distinct lines but share the pool
    // (per-line state itself keeps the usual one-thread-per-line
    // contract).

    bool hasOverlay(std::size_t line) const
    {
        return overlays_[line] != nullptr;
    }
    WriteOverlay *overlay(std::size_t line)
    {
        return overlays_[line];
    }
    const WriteOverlay *overlay(std::size_t line) const
    {
        return overlays_[line];
    }

    /** Materialize (from the uniform values) if absent. */
    WriteOverlay &ensureOverlay(std::size_t line);

    /** Drop the overlay if every cell matches the uniform values. */
    void normalizeOverlay(std::size_t line);

    /** Drop the overlay unconditionally (snapshot restore only). */
    void dropOverlay(std::size_t line);

    // ---- intended codeword ----------------------------------------

    const std::uint64_t *intendedWords(std::size_t line) const
    {
        return intended_.data() + line * intendedWordsPerLine_;
    }
    void setIntended(std::size_t line, const BitVector &word);

    // ---- spans ----------------------------------------------------

    CellConstSpan constSpan(std::size_t line, std::size_t count) const;
    CellSpan span(std::size_t line, std::size_t count);

    /** Whether any cell of the line is stuck (nu-sentinel scan). */
    bool lineHasStuck(std::size_t line, std::size_t count) const;

  private:
    void deriveManufacturing(std::size_t i, float &endurance,
                             float &nu_speed) const;

    /** Pool node acquire/release (thread-safe; lifetime rules above). */
    WriteOverlay *acquireOverlayNode();
    void releaseOverlayNode(WriteOverlay *node);

    /**
     * Manufacturing stream-id namespace: cell id in bits 8..47,
     * generation in bits 0..7, offset past the engine's other stream
     * ranges (see cell_storage.cc).
     */
    static constexpr std::uint64_t kManufStreamBase = 1ULL << 40;

    std::size_t lines_ = 0;
    std::size_t cellsPerLine_ = 0;
    std::size_t grayBytesPerLine_ = 0;
    std::size_t intendedWordsPerLine_ = 0;
    bool auxPlanes_ = true;
    std::uint64_t manufSeed_ = 0;
    QuantSpec spec_;

    std::vector<std::uint8_t> logRq_;
    std::vector<std::uint8_t> nuIdx_;
    std::vector<std::uint8_t> gray_;
    std::vector<float> nuSpeedAux_;
    std::vector<float> enduranceAux_;
    std::vector<std::uint64_t> intended_;
    std::vector<Tick> uniformTick_;
    std::vector<std::uint64_t> lineWrites_;
    std::vector<std::uint8_t> generation_;

    /** Per-line overlay slot; null = uniform write state. */
    std::vector<WriteOverlay *> overlays_;

    /** Slab backing store (stable addresses) and recycled nodes. */
    std::deque<WriteOverlay> overlaySlab_;
    std::vector<WriteOverlay *> overlayFree_;
    std::mutex overlayPoolMutex_;
};

inline CellConstSpan
CellSpan::view() const
{
    return static_cast<const CellStorage *>(storage)->constSpan(line,
                                                                count);
}

} // namespace pcmscrub

#endif // PCMSCRUB_PCM_CELL_STORAGE_HH
