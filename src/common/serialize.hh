/**
 * @file
 * Byte-level serialization primitives for snapshot state.
 *
 * SnapshotSink appends fixed-width little-endian fields to a byte
 * buffer; SnapshotSource reads them back with strict bounds checking
 * — any overrun, trailing garbage, or out-of-range count is a
 * fatal() with the section name in the message, never undefined
 * behaviour. Floating-point fields travel as raw IEEE-754 bit
 * patterns so a resumed run is bit-identical to an uninterrupted
 * one.
 *
 * The CRC32 and Fingerprint helpers back the snapshot container's
 * integrity checks: CRC32 (IEEE 802.3 polynomial) detects corrupted
 * payload bytes; Fingerprint (FNV-1a) condenses a device
 * configuration into the 64-bit value a snapshot is stamped with,
 * so restoring into a differently-configured simulation is rejected
 * before any state is touched.
 */

#ifndef PCMSCRUB_COMMON_SERIALIZE_HH
#define PCMSCRUB_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.hh"

namespace pcmscrub {

class Random;

/** CRC32 (IEEE, reflected) over a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);

/**
 * Append-only byte buffer with typed little-endian writers.
 */
class SnapshotSink
{
  public:
    void u8(std::uint8_t value);
    void u16(std::uint16_t value);
    void u32(std::uint32_t value);
    void u64(std::uint64_t value);
    void boolean(bool value) { u8(value ? 1 : 0); }

    /** IEEE-754 bit pattern, for bit-exact restore. */
    void f32(float value);
    void f64(double value);

    /** Length-prefixed raw string (length <= 2^16). */
    void str(const std::string &value);

    /** Bit length + packed words of a BitVector. */
    void bits(const BitVector &value);

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> takeBytes() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked cursor over a serialized byte range. Every reader
 * fatal()s — naming the context the source was created with — when
 * the data runs out; finish() rejects trailing bytes.
 */
class SnapshotSource
{
  public:
    /**
     * @param data byte range to read (not owned; must outlive this)
     * @param size bytes available
     * @param context section/file name used in diagnostics
     */
    SnapshotSource(const std::uint8_t *data, std::size_t size,
                   std::string context);

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    bool boolean();
    float f32();
    double f64();
    std::string str();
    BitVector bits();

    /**
     * u64 that must lie in [0, bound]; fatal() otherwise. The
     * standard guard before any count-driven resize or loop.
     */
    std::uint64_t u64Bounded(std::uint64_t bound, const char *what);

    std::size_t remaining() const { return size_ - cursor_; }
    const std::string &context() const { return context_; }

    /** Require that every byte was consumed; fatal() otherwise. */
    void finish() const;

    /** fatal() with the source's context prepended. */
    [[noreturn]] void corrupt(const char *what) const;

  private:
    /** Take `count` bytes or die with a truncation diagnostic. */
    const std::uint8_t *take(std::size_t count);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t cursor_ = 0;
    std::string context_;
};

/**
 * FNV-1a accumulator for configuration fingerprints.
 */
class Fingerprint
{
  public:
    void byte(std::uint8_t value);
    void u64(std::uint64_t value);
    void f64(double value);
    void str(const std::string &value);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Serialize a Random generator's full state. */
void saveRandom(SnapshotSink &sink, const Random &rng);

/** Restore a generator state written by saveRandom(). */
void loadRandom(SnapshotSource &source, Random &rng);

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_SERIALIZE_HH
