#include "pcm/line.hh"

#include <bit>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "pcm/kernels.hh"

namespace pcmscrub {

Line::Line(std::size_t codeword_bits)
    : codewordBits_(codeword_bits)
{
    PCMSCRUB_ASSERT(codeword_bits >= bitsPerCell,
                    "line of %zu bits is too small", codeword_bits);
    owned_ = std::make_unique<CellStorage>();
    CellStorage::Geometry geometry;
    geometry.lines = 1;
    geometry.cellsPerLine = mlcCellCount();
    geometry.intendedWordsPerLine = intendedWordCount();
    geometry.auxPlanes = true;
    owned_->configure(geometry);
    active_ = owned_.get();
    activeLine_ = 0;
    count_ = mlcCellCount();
}

Line::Line(std::size_t codeword_bits, CellStorage *storage,
           std::size_t line_index)
    : codewordBits_(codeword_bits),
      arrayHome_(storage),
      arrayLine_(line_index),
      active_(storage),
      activeLine_(line_index)
{
    PCMSCRUB_ASSERT(codeword_bits >= bitsPerCell,
                    "line of %zu bits is too small", codeword_bits);
    count_ = mlcCellCount();
    PCMSCRUB_ASSERT(line_index < storage->lineCount() &&
                        storage->cellsPerLine() == count_,
                    "line %zu does not fit the cell storage",
                    line_index);
}

void
Line::boundsCheck(unsigned index) const
{
    PCMSCRUB_ASSERT(index < count_, "cell %u out of range (%zu cells)",
                    index, count_);
}

void
Line::initialize(const CellModel &model, Random &rng)
{
    if (active_->auxMode()) {
        active_->ensureSpec(model.config());
        const std::size_t base = baseCell();
        for (std::size_t i = 0; i < count_; ++i) {
            Cell cell = active_->loadCell(base + i);
            model.initialize(cell, rng);
            active_->storeCell(base + i, cell);
        }
    } else {
        // Compact storage re-rolls the derivation generation instead
        // of drawing: same distribution, zero resident bytes, and no
        // per-line pass over the array RNG.
        active_->reinitializeCompactLine(activeLine_);
    }
}

unsigned
Line::targetLevel(const std::uint64_t *words, unsigned index) const
{
    const auto bitAt = [words](std::size_t bit) {
        return (words[bit >> 6] >> (bit & 63u)) & 1u;
    };
    if (slcMode_) {
        // One bit per cell, extreme levels only: full RESET for 0,
        // full SET for 1.
        return bitAt(index) ? mlcLevels - 1 : 0;
    }
    const std::size_t bit = static_cast<std::size_t>(index) *
        bitsPerCell;
    std::uint8_t gray = bitAt(bit) ? 1 : 0;
    if (bit + 1 < codewordBits_ && bitAt(bit + 1))
        gray |= 2;
    return grayToLevel(gray);
}

BitVector
Line::intendedWord() const
{
    const std::uint64_t *words = active_->intendedWords(activeLine_);
    return BitVector::fromWords(
        codewordBits_,
        std::vector<std::uint64_t>(words,
                                   words + intendedWordCount()));
}

std::size_t
Line::intendedDifferences(const BitVector &word) const
{
    PCMSCRUB_ASSERT(word.size() == codewordBits_,
                    "word of %zu bits against a %zu-bit line",
                    word.size(), codewordBits_);
    const std::uint64_t *intended =
        active_->intendedWords(activeLine_);
    const std::vector<std::uint64_t> &words = word.words();
    std::size_t diff = 0;
    for (std::size_t w = 0; w < words.size(); ++w)
        diff += static_cast<std::size_t>(
            std::popcount(words[w] ^ intended[w]));
    return diff;
}

LineProgramStats
Line::writeCodeword(const BitVector &codeword, Tick now,
                    const CellModel &model, Random &rng,
                    bool differential)
{
    PCMSCRUB_ASSERT(codeword.size() == codewordBits_,
                    "codeword of %zu bits on a %zu-bit line",
                    codeword.size(), codewordBits_);
    active_->ensureSpec(model.config());
    const LineProgramStats stats = kernels::programCodeword(
        span(), codeword, codewordBits_, slcMode_, now, model, rng,
        differential);
    active_->setIntended(activeLine_, codeword);
    active_->bumpLineWrite(activeLine_, now);
    // A clean full write leaves every cell back on the (new) uniform
    // write clock; fold the overlay away when that happened.
    active_->normalizeOverlay(activeLine_);
    return stats;
}

void
Line::warmWriteCodeword(const BitVector &codeword,
                        const CellModel &model, Random &rng)
{
    PCMSCRUB_ASSERT(codeword.size() == codewordBits_,
                    "codeword of %zu bits on a %zu-bit line",
                    codeword.size(), codewordBits_);
    PCMSCRUB_ASSERT(!slcMode_ && active_->lineWrites(activeLine_) == 0,
                    "warm write on a non-fresh line");
    active_->ensureSpec(model.config());
    kernels::warmProgramCodeword(span(), codeword, codewordBits_,
                                 model.config(), rng);
    active_->setIntended(activeLine_, codeword);
    active_->bumpLineWrite(activeLine_, 0);
}

BitVector
Line::readCodeword(Tick now, const CellModel &model,
                   double threshold_shift) const
{
    return kernels::senseCodeword(span(), codewordBits_, slcMode_,
                                  model.config(), now,
                                  threshold_shift);
}

unsigned
Line::marginScanCount(Tick now, const CellModel &model) const
{
    // SLC margins are an order of magnitude wider than the MLC guard
    // band; nothing is ever "about to fail".
    if (slcMode_)
        return 0;
    return kernels::marginScanCount(span(), model.config(), now);
}

unsigned
Line::trueBitErrors(Tick now, const CellModel &model) const
{
    return static_cast<unsigned>(
        intendedDifferences(readCodeword(now, model)));
}

void
Line::remapStuckToIntended()
{
    const std::uint64_t *words = active_->intendedWords(activeLine_);
    const std::size_t base = baseCell();
    for (unsigned i = 0; i < count_; ++i) {
        if (active_->stuckOf(base + i))
            active_->freeze(base + i, targetLevel(words, i));
    }
}

void
Line::buildSlcAnnex()
{
    auto annex = std::make_unique<CellStorage>();
    CellStorage::Geometry geometry;
    geometry.lines = 1;
    geometry.cellsPerLine = codewordBits_;
    geometry.intendedWordsPerLine = intendedWordCount();
    geometry.auxPlanes = true;
    annex->configure(geometry);
    annex->copySpecFrom(*active_);
    annex->setLineMeta(0, active_->lineLastWriteTick(activeLine_),
                       active_->lineWrites(activeLine_));
    annex->setIntended(0, intendedWord());
    const std::size_t base = baseCell();
    for (std::size_t i = 0; i < count_; ++i)
        annex->copyCell(*active_, base + i, i);
    owned_ = std::move(annex);
    active_ = owned_.get();
    activeLine_ = 0;
    count_ = codewordBits_;
}

void
Line::restoreMlcView()
{
    if (arrayHome_ != nullptr) {
        owned_.reset();
        active_ = arrayHome_;
        activeLine_ = arrayLine_;
    } else {
        auto storage = std::make_unique<CellStorage>();
        CellStorage::Geometry geometry;
        geometry.lines = 1;
        geometry.cellsPerLine = mlcCellCount();
        geometry.intendedWordsPerLine = intendedWordCount();
        geometry.auxPlanes = true;
        storage->configure(geometry);
        storage->copySpecFrom(*active_);
        owned_ = std::move(storage);
        active_ = owned_.get();
        activeLine_ = 0;
    }
    count_ = mlcCellCount();
}

void
Line::setSlcMode(const CellModel &model, Random &rng)
{
    if (slcMode_)
        return;
    slcMode_ = true;
    active_->ensureSpec(model.config());
    // Annex the paired line's cells so every codeword bit gets its
    // own cell; the newcomers are fresh silicon.
    const std::size_t previous = count_;
    buildSlcAnnex();
    for (std::size_t i = previous; i < count_; ++i) {
        Cell cell = active_->loadCell(i);
        model.initialize(cell, rng);
        active_->storeCell(i, cell);
    }
}

unsigned
Line::stuckCellCount() const
{
    const CellConstSpan cells = span();
    unsigned stuck = 0;
    for (std::size_t i = 0; i < cells.count; ++i)
        stuck += cells.stuck(i);
    return stuck;
}

std::size_t
Line::ownedBytes() const
{
    return owned_ ? owned_->bytes() : 0;
}

void
Line::saveState(SnapshotSink &sink) const
{
    sink.boolean(slcMode_);
    sink.u64(count_);
    const std::size_t base = baseCell();
    for (std::size_t i = 0; i < count_; ++i)
        sink.u8(active_->rawLogRq(base + i));
    for (std::size_t i = 0; i < count_; ++i)
        sink.u8(active_->rawNuIdx(base + i));
    // Gray codes re-packed four to the byte, independent of the
    // storage's internal alignment.
    for (std::size_t i = 0; i < count_; i += 4) {
        std::uint8_t packed = 0;
        for (std::size_t j = 0; j < 4 && i + j < count_; ++j) {
            packed |= static_cast<std::uint8_t>(
                active_->grayAt(base + i + j) << (j * 2));
        }
        sink.u8(packed);
    }
    sink.boolean(active_->auxMode());
    if (active_->auxMode()) {
        for (std::size_t i = 0; i < count_; ++i)
            sink.f32(active_->nuSpeedOf(base + i));
        for (std::size_t i = 0; i < count_; ++i)
            sink.f32(active_->enduranceOf(base + i));
    } else {
        sink.u8(active_->generation(activeLine_));
    }
    const WriteOverlay *overlay = active_->overlay(activeLine_);
    sink.boolean(overlay != nullptr);
    if (overlay != nullptr) {
        for (std::size_t i = 0; i < count_; ++i)
            sink.u32(overlay->writes[i]);
        for (std::size_t i = 0; i < count_; ++i)
            sink.u64(overlay->ticks[i]);
    }
    sink.bits(intendedWord());
    sink.u64(active_->lineLastWriteTick(activeLine_));
    sink.u64(active_->lineWrites(activeLine_));
}

void
Line::loadState(SnapshotSource &source)
{
    const bool slc = source.boolean();
    // SLC fallback annexes a paired line's cells, so the cell count
    // depends on the mode; anything else means the snapshot does not
    // match this geometry.
    const std::size_t expected = slc ? codewordBits_ : mlcCellCount();
    const std::uint64_t count = source.u64();
    if (count != expected)
        source.corrupt("line cell count does not match the geometry");
    // Re-point the view for the snapshot's mode (either direction:
    // a fresh MLC line can restore an SLC snapshot and vice versa).
    if (slc && !slcMode_) {
        slcMode_ = true;
        buildSlcAnnex();
    } else if (!slc && slcMode_) {
        slcMode_ = false;
        restoreMlcView();
    }
    const std::size_t base = baseCell();
    for (std::size_t i = 0; i < count_; ++i)
        active_->setRawLogRq(base + i, source.u8());
    for (std::size_t i = 0; i < count_; ++i)
        active_->setRawNuIdx(base + i, source.u8());
    for (std::size_t i = 0; i < count_; i += 4) {
        const std::uint8_t packed = source.u8();
        for (std::size_t j = 0; j < 4 && i + j < count_; ++j)
            active_->setGray(base + i + j, (packed >> (j * 2)) & 3u);
    }
    const bool aux = source.boolean();
    if (aux != active_->auxMode()) {
        source.corrupt(
            "line storage mode does not match the geometry");
    }
    if (aux) {
        for (std::size_t i = 0; i < count_; ++i)
            active_->setNuSpeed(base + i, source.f32());
        for (std::size_t i = 0; i < count_; ++i)
            active_->setEndurance(base + i, source.f32());
    } else {
        active_->setGeneration(activeLine_, source.u8());
    }
    // Overlay presence round-trips verbatim: loading never
    // normalizes, so save(load(x)) == x byte for byte.
    if (source.boolean()) {
        WriteOverlay &overlay = active_->ensureOverlay(activeLine_);
        for (std::size_t i = 0; i < count_; ++i)
            overlay.writes[i] = source.u32();
        for (std::size_t i = 0; i < count_; ++i)
            overlay.ticks[i] = source.u64();
    } else {
        active_->dropOverlay(activeLine_);
    }
    BitVector intended = source.bits();
    if (intended.size() != codewordBits_)
        source.corrupt("intended-codeword width does not match");
    active_->setIntended(activeLine_, intended);
    const Tick lastWrite = source.u64();
    const std::uint64_t writes = source.u64();
    active_->setLineMeta(activeLine_, lastWrite, writes);
}

} // namespace pcmscrub
