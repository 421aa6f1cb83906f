/**
 * @file
 * Binary BCH code, the paper's "strong ECC" building block.
 *
 * The code is the t-error-correcting primitive BCH code of length
 * 2^m - 1, shortened to hold exactly dataBits() of payload. Encoding
 * is systematic (payload first, then check bits). Decoding follows
 * the textbook pipeline: syndrome computation, Berlekamp-Massey for
 * the error-locator polynomial, Chien search for its roots.
 */

#ifndef PCMSCRUB_ECC_BCH_HH
#define PCMSCRUB_ECC_BCH_HH

#include <memory>
#include <vector>

#include "ecc/code.hh"
#include "gf/binpoly.hh"
#include "gf/gf2m.hh"

namespace pcmscrub {

/**
 * Shortened binary BCH code over GF(2^m).
 */
class BchCode : public Code
{
  public:
    /**
     * Build a t-error-correcting code for a data_bits payload.
     *
     * @param data_bits payload size (e.g. 512 for a memory line)
     * @param t guaranteed correctable errors
     * @param m field degree; 0 (default) picks the smallest field
     *          whose code fits the payload
     */
    BchCode(std::size_t data_bits, unsigned t, unsigned m = 0);

    std::string name() const override;
    std::size_t dataBits() const override { return dataBits_; }
    std::size_t codewordBits() const override { return codewordBits_; }
    unsigned correctableErrors() const override { return t_; }

    BitVector encode(const BitVector &data) const override;
    DecodeResult decode(BitVector &codeword) const override;
    bool check(const BitVector &codeword) const override;

    /**
     * check() on the raw backing words of a codeword (little-endian,
     * low bit = bit 0, `bits` == codewordBits()): a zero-copy
     * syndrome pass; bits past `bits` in the final word are ignored.
     */
    bool checkWords(const std::uint64_t *words,
                    std::size_t bits) const;

    /** Field degree in use. */
    unsigned fieldDegree() const { return field_.m(); }

    /** The generator polynomial (over GF(2)). */
    const BinPoly &generator() const { return generator_; }

    /** Correction-power ceiling the stack decode buffers assume. */
    static constexpr unsigned kMaxT = 64;

  private:
    /**
     * 2t partial syndromes S_1..S_2t into syn (2t + 1 entries,
     * zeroed here; syn[0] unused); true if any is non-zero. Works on
     * the raw backing words so storage planes decode without a
     * BitVector copy, and fills a caller-provided (stack) buffer so
     * clean checks never allocate.
     */
    bool syndromes(const std::uint64_t *words, GfElem *syn) const;

    /** Precompute synTable_ (see member comment). */
    void buildSyndromeTable();

    /** Precompute encTable_ / genLow_ (see member comments). */
    void buildEncodeTable();

    /** Reference encode via BinPoly division (small-parity fallback). */
    BitVector encodeSlow(const BitVector &data) const;

    /** Codeword bit index -> polynomial power. */
    std::size_t bitToPower(std::size_t bit) const;

    /** Polynomial power -> codeword bit index (or npos if outside). */
    std::size_t powerToBit(std::size_t power) const;

    static unsigned pickFieldDegree(std::size_t data_bits, unsigned t);

    std::size_t dataBits_;
    unsigned t_;
    GF2m field_;
    BinPoly generator_;
    unsigned parityBits_;
    std::size_t codewordBits_;

    /**
     * Per-(byte position, byte value) syndrome contributions:
     * synTable_[(p * 256 + v) * 2t + (j - 1)] is the value byte v at
     * codeword bits [8p, 8p+8) adds to S_j. syndromes() then costs
     * one table row XOR per non-zero payload byte instead of a
     * field multiply per set bit per syndrome.
     */
    std::vector<GfElem> synTable_;
    std::size_t synBytes_;

    /**
     * Byte-sliced encode remainders: encTable_[v * encWords_ + w] is
     * word w of (v(x) * x^parityBits_) mod g(x) for the byte value v.
     * Systematic encoding then runs a CRC-style register over the
     * payload bytes — one table row XOR per byte — instead of a
     * bit-serial polynomial division. Empty when the parity register
     * is too narrow for byte steps (parityBits_ < 8); encode falls
     * back to the BinPoly path.
     */
    std::vector<std::uint64_t> encTable_;

    /** Words per remainder row: (parityBits_ + 63) / 64, at most 2. */
    unsigned encWords_ = 0;

    /** Low parityBits_ bits of g(x) == x^parityBits_ mod g(x). */
    std::uint64_t genLow_[2] = {0, 0};
};

} // namespace pcmscrub

#endif // PCMSCRUB_ECC_BCH_HH
