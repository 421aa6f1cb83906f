/**
 * @file
 * Abstract lightweight error detector and its factory.
 *
 * The paper's cheap "is anything wrong with this line?" operation
 * admits several implementations with different cost/miss trades;
 * the scrub backends program against this interface so detector
 * choice is configuration (ablated in bench/fig_light_detect).
 */

#ifndef PCMSCRUB_ECC_DETECTOR_HH
#define PCMSCRUB_ECC_DETECTOR_HH

#include <memory>
#include <string>

#include "common/bitvector.hh"

namespace pcmscrub {

/**
 * Detection-only code: a small word stored alongside the line.
 */
class Detector
{
  public:
    virtual ~Detector() = default;

    virtual std::string name() const = 0;

    /** Protected payload width in bits. */
    virtual std::size_t dataBits() const = 0;

    /** Stored detect-word width in bits. */
    virtual unsigned storedBits() const = 0;

    /** Compute the detect word for a payload. */
    virtual BitVector compute(const BitVector &data) const = 0;

    /** True when the stored word matches the payload. */
    bool matches(const BitVector &data, const BitVector &stored) const
    {
        return compute(data) == stored;
    }

    /**
     * Analytic probability that `errors` random payload errors
     * evade detection (the Monte-Carlo engine's view of this
     * detector).
     */
    virtual double missProbability(unsigned errors) const = 0;
};

/** Detector families. */
enum class DetectorKind : unsigned {
    /** s-way interleaved parity (cell-granular classes). */
    InterleavedParity,
    /** CRC with a standard generator (8/16/32 bits). */
    Crc,
};

/**
 * Build a detector.
 *
 * @param kind family
 * @param data_bits protected payload width
 * @param width detect-word bits (parity classes or CRC width; CRC
 *        supports 8, 16, and 32)
 * @param granularity bits per class symbol (parity only)
 */
std::unique_ptr<Detector> makeDetector(DetectorKind kind,
                                       std::size_t data_bits,
                                       unsigned width,
                                       unsigned granularity = 1);

} // namespace pcmscrub

#endif // PCMSCRUB_ECC_DETECTOR_HH
