/**
 * @file
 * Abstract error-correcting code interface shared by SECDED and BCH.
 *
 * A Code maps dataBits() of payload to codewordBits() of storage. The
 * scrub mechanisms only rely on this interface, so swapping SECDED
 * for BCH-t (the paper's "strong ECC" proposal) is a configuration
 * change, not a code change.
 */

#ifndef PCMSCRUB_ECC_CODE_HH
#define PCMSCRUB_ECC_CODE_HH

#include <memory>
#include <string>

#include "common/bitvector.hh"

namespace pcmscrub {

/** Outcome classification of one decode attempt. */
enum class DecodeStatus {
    /** Syndrome was zero: nothing to do. */
    Clean,
    /** Errors found and corrected in place. */
    Corrected,
    /** Errors found but beyond the code's correction power. */
    Uncorrectable,
};

/**
 * Result of Code::decode, including effort accounting that the
 * energy model turns into picojoules.
 */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::Clean;

    /** Number of bit positions flipped by the corrector. */
    unsigned correctedBits = 0;

    /**
     * True when the expensive machinery ran (for BCH: Berlekamp-
     * Massey plus Chien search; syndrome-only passes are cheap).
     */
    bool usedFullDecode = false;
};

/**
 * A systematic binary block code.
 */
class Code
{
  public:
    virtual ~Code() = default;

    virtual std::string name() const = 0;

    /** Payload size in bits. */
    virtual std::size_t dataBits() const = 0;

    /** Stored size in bits (payload + check bits). */
    virtual std::size_t codewordBits() const = 0;

    std::size_t checkBits() const { return codewordBits() - dataBits(); }

    /** Guaranteed correctable errors per codeword. */
    virtual unsigned correctableErrors() const = 0;

    /** Encode data (dataBits() long) into a full codeword. */
    virtual BitVector encode(const BitVector &data) const = 0;

    /**
     * Detect-and-correct in place. The codeword is modified only
     * when status == Corrected.
     */
    virtual DecodeResult decode(BitVector &codeword) const = 0;

    /**
     * Cheap error check: true if the codeword is consistent (zero
     * syndrome). Costs one syndrome pass, never corrects.
     */
    virtual bool check(const BitVector &codeword) const = 0;

    /**
     * Recover the payload from a codeword. The default assumes the
     * systematic [data | checks] layout; codes with a different
     * physical layout (e.g. interleaved slices) override this.
     */
    virtual BitVector extractData(const BitVector &codeword) const;
};

} // namespace pcmscrub

#endif // PCMSCRUB_ECC_CODE_HH
