/**
 * @file
 * Versioned, checksummed snapshot container.
 *
 * Layout (all integers little-endian):
 *
 *     offset  size  field
 *     0       8     magic "PCMSCRB1"
 *     8       4     format version (snapshotFormatVersion)
 *     12      8     total container length in bytes
 *     20      8     device-config fingerprint (FNV-1a)
 *     28      4     section count (1..64)
 *     32      ...   sections, back to back
 *
 * Each section:
 *
 *     4     name length (1..64)
 *     n     name bytes (ASCII)
 *     8     payload length
 *     4     CRC32 over name + payload
 *     ...   payload bytes
 *
 * Every field is validated on read; a truncation, a flipped bit, an
 * unknown version, or trailing garbage is a fatal() naming the file
 * and the failing section — never undefined behaviour or a silently
 * wrong resume. The CRC covers the section *name* as well as the
 * payload so corruption cannot quietly re-label one section's bytes
 * as another's.
 *
 * Writing is atomic: the container goes to `path + ".tmp"`, is
 * fsync'd, and is then renamed over `path` (with a directory fsync),
 * so a crash mid-checkpoint leaves the previous good snapshot
 * untouched.
 */

#ifndef PCMSCRUB_SNAPSHOT_SNAPSHOT_HH
#define PCMSCRUB_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"

namespace pcmscrub {

/**
 * Container format version this build writes and accepts.
 *
 * History:
 *  - v1: initial container (PR 3).
 *  - v2: RAS control plane — backends carry a PPR remap table and an
 *    optional telemetry attachment, sweep policies serialize their
 *    (now runtime-tunable) interval and last-wake tick. Older
 *    snapshots are rejected loudly; there is no in-place migration.
 *  - v3: quantized cell planes — lines serialize the u8/2-bit
 *    quantized planes plus lazy write overlays instead of nine f32
 *    fields per cell; compact (array) storage stores a manufacturing
 *    generation byte per line in place of the derived
 *    nuSpeed/endurance planes. v2 snapshots hold the old encodings
 *    and are rejected loudly; there is no in-place migration.
 *  - v4: batched fault lanes — the fault injector serializes a sixth
 *    per-lane stats counter (droppedInjections, stuck injections
 *    that found no healthy cell). v3 snapshots hold five counters
 *    per lane and are rejected loudly; there is no in-place
 *    migration.
 *  - v5: per-shard repair resources — the spare pool and the PPR
 *    remap table serialize one partition per shard of the backend's
 *    ShardPlan (capacity, usage, and that shard's line map) after
 *    the total capacity and the partition count. v4 snapshots hold
 *    one process-wide map each and are rejected loudly; there is no
 *    in-place migration.
 */
constexpr std::uint32_t snapshotFormatVersion = 5;

/**
 * Builder for one snapshot container.
 */
class SnapshotWriter
{
  public:
    /** @param fingerprint device/run configuration fingerprint */
    explicit SnapshotWriter(std::uint64_t fingerprint)
        : fingerprint_(fingerprint)
    {
    }

    /**
     * Append one named section. Names must be unique, 1..64 ASCII
     * bytes.
     */
    void addSection(const std::string &name,
                    std::vector<std::uint8_t> payload);

    /** Serialize the full container. */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Atomically persist the container to `path` (temp file + fsync
     * + rename + directory fsync). Any I/O failure is fatal().
     */
    void writeFile(const std::string &path) const;

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> payload;
    };

    std::uint64_t fingerprint_;
    std::vector<Section> sections_;
};

/**
 * Parsed, fully-validated snapshot container.
 */
class SnapshotReader
{
  public:
    /**
     * Parse a container from raw bytes; every validation failure is
     * fatal(). `context` names the origin (file path) in
     * diagnostics.
     */
    SnapshotReader(std::vector<std::uint8_t> bytes, std::string context);

    /** Read and parse a snapshot file; missing file is fatal(). */
    static SnapshotReader fromFile(const std::string &path);

    /**
     * Non-fatal variant of fromFile(): a missing, truncated, or
     * corrupt file yields std::nullopt with the would-be fatal()
     * diagnostic in `*error` (if non-null). Recovery paths use this
     * to probe checkpoint candidates without aborting the process.
     */
    static std::optional<SnapshotReader>
    tryFromFile(const std::string &path, std::string *error = nullptr);

    std::uint64_t fingerprint() const { return fingerprint_; }
    const std::string &context() const { return context_; }

    bool hasSection(const std::string &name) const;

    /**
     * Cursor over a section's payload; a missing section is
     * fatal(). Callers must finish() the source when done so
     * trailing bytes inside a section are rejected too.
     */
    SnapshotSource section(const std::string &name) const;

  private:
    struct Section
    {
        std::string name;
        std::size_t offset; //!< Payload offset into bytes_.
        std::size_t size;   //!< Payload size in bytes.
    };

    SnapshotReader() = default;

    /**
     * Validate bytes_ and index the sections. Returns the full
     * diagnostic on failure, empty string on success.
     */
    std::string parse();

    std::vector<std::uint8_t> bytes_;
    std::string context_;
    std::uint64_t fingerprint_ = 0;
    std::vector<Section> sections_;
};

/**
 * Keep `path` as `path + ".1"` (replacing any previous rotation) so
 * one older snapshot generation survives the next write. `path` is
 * hard-linked, not renamed, so it stays in place until that write
 * renames the new snapshot over it: a kill at any moment leaves a
 * complete snapshot under `path`. A missing `path` is a no-op; a
 * failing unlink or link is fatal().
 */
void rotateSnapshot(const std::string &path);

/**
 * Open the newest valid snapshot among `path` and its rotation
 * `path + ".1"`: candidates that fail to parse — or whose fingerprint
 * differs from `*expectedFingerprint` when that is non-null — are
 * skipped with a warn(). Returns std::nullopt if no candidate
 * survives, with the per-candidate diagnostics joined into
 * `*failure` (if non-null).
 */
std::optional<SnapshotReader>
openNewestValidSnapshot(const std::string &path,
                        const std::uint64_t *expectedFingerprint,
                        std::string *failure = nullptr);

} // namespace pcmscrub

#endif // PCMSCRUB_SNAPSHOT_SNAPSHOT_HH
