/**
 * @file
 * Packed bit vector used for line payloads and codewords.
 *
 * std::vector<bool> is avoided deliberately: codec inner loops need
 * word-level access (popcount, XOR of whole words) that the standard
 * proxy-reference interface can't express.
 */

#ifndef PCMSCRUB_COMMON_BITVECTOR_HH
#define PCMSCRUB_COMMON_BITVECTOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pcmscrub {

class Random;

/**
 * Fixed-length sequence of bits packed into 64-bit words.
 */
class BitVector
{
  public:
    BitVector() = default;

    /** All-zero vector of the given length. */
    explicit BitVector(std::size_t bits);

    std::size_t size() const { return bits_; }
    bool empty() const { return bits_ == 0; }

    bool get(std::size_t index) const;
    void set(std::size_t index, bool value);
    void flip(std::size_t index);

    /**
     * XOR `mask` into backing word `word_index`. Bits past the vector
     * length must not be set in the mask; equivalent to flipping each
     * set bit individually.
     */
    void xorWord(std::size_t word_index, std::uint64_t mask);

    /** Set every bit to zero without changing the length. */
    void clear();

    /** Number of set bits. */
    std::size_t popcount() const;

    /** XOR another vector of identical length into this one. */
    BitVector &operator^=(const BitVector &other);

    /** Named form of ^= for call sites that read better with it. */
    void xorWith(const BitVector &other) { *this ^= other; }

    /**
     * Number of positions at which this and `other` differ, computed
     * word-by-word (one XOR + popcount per 64 bits). The primitive
     * behind hammingDistance() and every compare hot path.
     */
    std::size_t countDifferences(const BitVector &other) const;

    /** Hamming distance to another vector of identical length. */
    std::size_t hammingDistance(const BitVector &other) const
    {
        return countDifferences(other);
    }

    /** Set bits within one backing word. */
    unsigned popcountWord(std::size_t word_index) const;

    /**
     * Copy `n` bits from src[src_lo, src_lo+n) into
     * [dst_lo, dst_lo+n) of this vector, moving 64-bit chunks
     * instead of single bits. Source and destination may be
     * arbitrarily misaligned.
     */
    void copyFrom(const BitVector &src, std::size_t src_lo,
                  std::size_t dst_lo, std::size_t n);

    bool operator==(const BitVector &other) const = default;

    /** Raw words, low bit = bit 0. Trailing bits are kept zero. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /**
     * Mutable raw-word pointer for batched in-place kernels (fault
     * deposits, syndrome accumulation). The caller owns the tail
     * invariant: bits at positions >= size() must stay zero.
     */
    std::uint64_t *wordData() { return words_.data(); }

    /**
     * Reconstruct from raw words (the inverse of words()). The word
     * count must match the bit length; trailing bits are re-masked.
     */
    static BitVector fromWords(std::size_t bits,
                               std::vector<std::uint64_t> words);

    /** Extract bits [lo, lo+n) as an integer (n <= 64). */
    std::uint64_t extract(std::size_t lo, std::size_t n) const;

    /** Deposit the low n bits of value at [lo, lo+n) (n <= 64). */
    void deposit(std::size_t lo, std::size_t n, std::uint64_t value);

    /** Fill with independent fair coin flips. */
    void randomize(Random &rng);

    /** "0101..." dump, bit 0 first (for test diagnostics). */
    std::string toString() const;

  private:
    void maskTail();

    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_BITVECTOR_HH
