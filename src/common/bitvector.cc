#include "common/bitvector.hh"

#include <bit>

#include "common/logging.hh"
#include "common/random.hh"

namespace pcmscrub {

BitVector::BitVector(std::size_t bits)
    : bits_(bits), words_((bits + 63) / 64, 0)
{
}

bool
BitVector::get(std::size_t index) const
{
    PCMSCRUB_ASSERT(index < bits_, "bit index %zu out of range %zu",
                    index, bits_);
    return (words_[index / 64] >> (index % 64)) & 1ULL;
}

void
BitVector::set(std::size_t index, bool value)
{
    PCMSCRUB_ASSERT(index < bits_, "bit index %zu out of range %zu",
                    index, bits_);
    const std::uint64_t mask = 1ULL << (index % 64);
    if (value)
        words_[index / 64] |= mask;
    else
        words_[index / 64] &= ~mask;
}

void
BitVector::flip(std::size_t index)
{
    PCMSCRUB_ASSERT(index < bits_, "bit index %zu out of range %zu",
                    index, bits_);
    words_[index / 64] ^= 1ULL << (index % 64);
}

void
BitVector::xorWord(std::size_t word_index, std::uint64_t mask)
{
    PCMSCRUB_ASSERT(word_index < words_.size(),
                    "word index %zu out of range %zu", word_index,
                    words_.size());
    const std::size_t tail = bits_ % 64;
    PCMSCRUB_ASSERT(word_index + 1 < words_.size() || tail == 0 ||
                        (mask >> tail) == 0,
                    "xorWord mask sets bits past length %zu", bits_);
    words_[word_index] ^= mask;
}

void
BitVector::clear()
{
    for (auto &word : words_)
        word = 0;
}

std::size_t
BitVector::popcount() const
{
    std::size_t total = 0;
    for (const auto word : words_)
        total += static_cast<std::size_t>(std::popcount(word));
    return total;
}

BitVector &
BitVector::operator^=(const BitVector &other)
{
    PCMSCRUB_ASSERT(bits_ == other.bits_,
                    "xor of mismatched lengths %zu vs %zu",
                    bits_, other.bits_);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] ^= other.words_[i];
    return *this;
}

std::size_t
BitVector::countDifferences(const BitVector &other) const
{
    PCMSCRUB_ASSERT(bits_ == other.bits_,
                    "distance of mismatched lengths %zu vs %zu",
                    bits_, other.bits_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < words_.size(); ++i)
        total += static_cast<std::size_t>(
            std::popcount(words_[i] ^ other.words_[i]));
    return total;
}

unsigned
BitVector::popcountWord(std::size_t word_index) const
{
    PCMSCRUB_ASSERT(word_index < words_.size(),
                    "word index %zu out of range %zu", word_index,
                    words_.size());
    return static_cast<unsigned>(std::popcount(words_[word_index]));
}

void
BitVector::copyFrom(const BitVector &src, std::size_t src_lo,
                    std::size_t dst_lo, std::size_t n)
{
    PCMSCRUB_ASSERT(src_lo + n <= src.bits_,
                    "copy source [%zu,+%zu) out of %zu", src_lo, n,
                    src.bits_);
    PCMSCRUB_ASSERT(dst_lo + n <= bits_,
                    "copy destination [%zu,+%zu) out of %zu", dst_lo,
                    n, bits_);
    while (n > 0) {
        const std::size_t take = n < 64 ? n : 64;
        deposit(dst_lo, take, src.extract(src_lo, take));
        src_lo += take;
        dst_lo += take;
        n -= take;
    }
}

std::uint64_t
BitVector::extract(std::size_t lo, std::size_t n) const
{
    PCMSCRUB_ASSERT(n >= 1 && n <= 64, "extract width %zu invalid", n);
    PCMSCRUB_ASSERT(lo + n <= bits_, "extract [%zu,+%zu) out of %zu",
                    lo, n, bits_);
    const std::size_t word = lo / 64;
    const std::size_t shift = lo % 64;
    std::uint64_t value = words_[word] >> shift;
    if (shift + n > 64)
        value |= words_[word + 1] << (64 - shift);
    if (n < 64)
        value &= (1ULL << n) - 1;
    return value;
}

void
BitVector::deposit(std::size_t lo, std::size_t n, std::uint64_t value)
{
    PCMSCRUB_ASSERT(n >= 1 && n <= 64, "deposit width %zu invalid", n);
    PCMSCRUB_ASSERT(lo + n <= bits_, "deposit [%zu,+%zu) out of %zu",
                    lo, n, bits_);
    const std::uint64_t mask = n == 64 ? ~0ULL : (1ULL << n) - 1;
    value &= mask;
    const std::size_t word = lo / 64;
    const std::size_t shift = lo % 64;
    words_[word] = (words_[word] & ~(mask << shift)) | (value << shift);
    if (shift + n > 64) {
        const std::size_t high = shift + n - 64;
        const std::uint64_t hmask = (1ULL << high) - 1;
        words_[word + 1] = (words_[word + 1] & ~hmask) |
            (value >> (64 - shift));
    }
    maskTail();
}

void
BitVector::randomize(Random &rng)
{
    for (auto &word : words_)
        word = rng.next();
    maskTail();
}

std::string
BitVector::toString() const
{
    std::string out;
    out.reserve(bits_);
    for (std::size_t i = 0; i < bits_; ++i)
        out.push_back(get(i) ? '1' : '0');
    return out;
}

BitVector
BitVector::fromWords(std::size_t bits, std::vector<std::uint64_t> words)
{
    PCMSCRUB_ASSERT(words.size() == (bits + 63) / 64,
                    "fromWords: %zu words cannot hold %zu bits",
                    words.size(), bits);
    BitVector result;
    result.bits_ = bits;
    result.words_ = std::move(words);
    result.maskTail();
    return result;
}

void
BitVector::maskTail()
{
    const std::size_t tail = bits_ % 64;
    if (tail != 0 && !words_.empty())
        words_.back() &= (1ULL << tail) - 1;
}

} // namespace pcmscrub
