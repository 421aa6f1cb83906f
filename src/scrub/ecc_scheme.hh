/**
 * @file
 * Analytic ECC semantics: how many cell errors a line-protection
 * scheme survives and what its operations cost. This is the
 * model-level mirror of the real codecs in src/ecc (which the
 * cell-accurate backend uses directly); the two are cross-validated
 * in the test suite.
 */

#ifndef PCMSCRUB_SCRUB_ECC_SCHEME_HH
#define PCMSCRUB_SCRUB_ECC_SCHEME_HH

#include <cstdint>
#include <string>

#include "pcm/device_config.hh"

namespace pcmscrub {

class Random;

/** Protection family. */
enum class EccKind : unsigned {
    /** DRAM-style interleaved SECDED (8 x (72,64) over a line). */
    SecdedInterleaved,
    /** One BCH-t code over the whole line. */
    Bch,
};

/**
 * Analytic description of a line-protection scheme.
 */
class EccScheme
{
  public:
    /** DRAM baseline: 8-way interleaved SECDED. */
    static EccScheme secdedX8();

    /** Strong ECC: BCH correcting t errors per line. */
    static EccScheme bch(unsigned t);

    EccKind kind() const { return kind_; }
    std::string name() const;

    /** Guaranteed correctable errors per line (worst placement). */
    unsigned guaranteedT() const;

    /**
     * Check bits added to a 512-bit payload (storage overhead used
     * to size lines and check-bit cells).
     */
    unsigned checkBits() const;

    /** Stored bits of a line: the 512-bit payload plus checkBits(). */
    unsigned codewordBits() const { return 512 + checkBits(); }

    /**
     * Whether `errors` cell errors defeat the scheme. Deterministic
     * for BCH (errors > t); probabilistic for interleaved SECDED
     * (depends on how errors land in slices), hence the RNG.
     */
    bool uncorrectable(unsigned errors, Random &rng) const;

    /**
     * Exact probability that `errors` uniformly-placed errors defeat
     * the scheme (used by closed-form sweeps; matches the sampling
     * above).
     */
    double uncorrectableProb(unsigned errors) const;

    /** Energy of a syndrome-only clean check. */
    double checkEnergy(const DeviceConfig &config) const;

    /** Energy of a full locate-and-correct decode. */
    double fullDecodeEnergy(const DeviceConfig &config) const;

    /**
     * Whether the scheme has a cheap syndrome-only check distinct
     * from the full decode (BCH does; SECDED's decode is the check).
     */
    bool hasCheapCheck() const { return kind_ == EccKind::Bch; }

  private:
    EccScheme(EccKind kind, unsigned t, unsigned ways);

    EccKind kind_;
    unsigned t_;    //!< Per-codeword correction strength.
    unsigned ways_; //!< Interleave factor (SECDED).
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_ECC_SCHEME_HH
