/**
 * @file
 * A cell-accurate array of lines: the sampled region of PCM that the
 * cell-level simulator operates on. Experiments that need full-device
 * scale use the analytic Monte-Carlo engine instead and treat this
 * array as the calibrated ground truth.
 *
 * Cell state is stored structure-of-arrays: the array owns one plane
 * per cell field and lines view fixed-stride slices, so a 10^5-line
 * array is nine allocations instead of one vector per line, and the
 * batched kernels stream contiguous memory.
 */

#ifndef PCMSCRUB_PCM_ARRAY_HH
#define PCMSCRUB_PCM_ARRAY_HH

#include <vector>

#include "common/random.hh"
#include "pcm/cell.hh"
#include "pcm/cell_storage.hh"
#include "pcm/line.hh"

namespace pcmscrub {

/**
 * Fixed-geometry collection of ECC lines over one device model.
 */
class CellArray
{
  public:
    /**
     * @param num_lines lines in the sampled array
     * @param codeword_bits stored bits per line (data + check)
     * @param config device physics
     * @param seed RNG seed (array owns its generator)
     */
    CellArray(std::size_t num_lines, std::size_t codeword_bits,
              const DeviceConfig &config, std::uint64_t seed);

    // Lines hold pointers into the array-owned cell planes; the
    // array must stay put.
    CellArray(const CellArray &) = delete;
    CellArray &operator=(const CellArray &) = delete;

    std::size_t lineCount() const { return lines_.size(); }
    std::size_t codewordBits() const { return codewordBits_; }
    const CellModel &model() const { return model_; }
    Random &rng() { return rng_; }

    Line &line(std::size_t index) { return lines_.at(index); }
    const Line &line(std::size_t index) const
    {
        return lines_.at(index);
    }

    /**
     * Program every line with an independent random codeword at
     * time `now` (experiment warm-up); returns aggregate stats.
     *
     * Sharded across ThreadPool::global(): each line draws from its
     * own counter-based stream (seed, line), and stats reduce in
     * line order, so the result is bit-identical at any thread
     * count.
     */
    LineProgramStats writeRandomAll(Tick now);

    /** Total ground-truth bit errors across the array. */
    std::uint64_t totalBitErrors(Tick now) const;

    /** Total permanently failed cells across the array. */
    std::uint64_t totalStuckCells() const;

    /**
     * Heap bytes of cell and line storage, for the scale benches'
     * bytes-per-line reporting: the shared planes, each line's owned
     * planes and intended word, and the line objects themselves.
     * Allocator overhead is deliberately excluded.
     */
    std::size_t storageBytes() const;

    /** Serialize the array RNG and every line. */
    void saveState(SnapshotSink &sink) const;

    /**
     * Restore state written by saveState() into an array constructed
     * with the same geometry; mismatches are fatal.
     */
    void loadState(SnapshotSource &source);

  private:
    std::size_t codewordBits_;
    CellModel model_;
    Random rng_;
    std::uint64_t seed_;
    CellStorage cellStore_;
    std::vector<Line> lines_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_PCM_ARRAY_HH
