/**
 * @file
 * Lightweight error detector: the paper's cheap "is anything wrong
 * with this line?" operation that lets the scrub avoid running the
 * full BCH decoder on clean lines.
 *
 * The detector is an s-way interleaved parity: detect bit j holds the
 * parity of payload bits congruent to j mod s. Any odd number of
 * errors in a parity class is caught; a miss requires every class to
 * see an even error count, so single errors are always detected and
 * multi-bit misses decay roughly as 2^-s for random error placement.
 */

#ifndef PCMSCRUB_ECC_CHECKSUM_HH
#define PCMSCRUB_ECC_CHECKSUM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.hh"
#include "ecc/detector.hh"

namespace pcmscrub {

/**
 * Interleaved-parity light detector.
 *
 * The `granularity` parameter groups adjacent bits into one symbol
 * before class assignment: class = (bit / granularity) mod s. For
 * MLC storage, granularity = bits-per-cell makes classes stripe
 * across *cells*, which matters physically: a drift error flips one
 * specific Gray bit of its cell, so bit-indexed classes would
 * concentrate each dominant error mode into half the classes and
 * double the miss rate. Cell-indexed classes restore uniformity.
 */
class LightDetector : public Detector
{
  public:
    /**
     * @param data_bits protected payload width
     * @param parity_bits number of interleaved parity classes (s)
     * @param granularity bits per class-assignment symbol
     */
    LightDetector(std::size_t data_bits, unsigned parity_bits,
                  unsigned granularity = 1);

    std::string name() const override;
    std::size_t dataBits() const override { return dataBits_; }
    unsigned storedBits() const override { return parityBits_; }
    BitVector compute(const BitVector &data) const override;
    double missProbability(unsigned errors) const override;

    unsigned granularity() const { return granularity_; }

  private:
    std::size_t dataBits_;
    unsigned parityBits_;
    unsigned granularity_;

    /**
     * masks_[word * parityBits_ + c] selects the bits of payload
     * word `word` belonging to parity class c, so compute() is one
     * AND + popcount per (word, class) instead of a bit loop.
     */
    std::vector<std::uint64_t> masks_;
    std::size_t payloadWords_;
};

/**
 * CRC detect word over the payload.
 *
 * Any single error (and any burst shorter than the width) is caught;
 * random multi-bit patterns alias with probability ~2^-width. More
 * logic per check than interleaved parity, far lower miss floors.
 */
class CrcDetector : public Detector
{
  public:
    /**
     * @param data_bits protected payload width
     * @param width CRC width: 8, 16, or 32
     */
    CrcDetector(std::size_t data_bits, unsigned width);

    std::string name() const override;
    std::size_t dataBits() const override { return dataBits_; }
    unsigned storedBits() const override { return width_; }
    BitVector compute(const BitVector &data) const override;
    double missProbability(unsigned errors) const override;

  private:
    std::size_t dataBits_;
    unsigned width_;
    std::uint32_t polynomial_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_ECC_CHECKSUM_HH
