#include "snapshot/snapshot.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pcmscrub {

namespace {

constexpr char snapshotMagic[8] = {'P', 'C', 'M', 'S', 'C', 'R', 'B',
                                   '1'};
constexpr std::size_t headerSize = 8 + 4 + 8 + 8 + 4;
constexpr std::uint32_t maxSections = 64;
constexpr std::uint32_t maxSectionName = 64;

// A full-device cell-accurate array is tens of MiB; 1 GiB leaves
// lots of headroom while keeping a corrupted length from driving a
// giant allocation.
constexpr std::uint64_t maxContainerBytes = 1ULL << 30;

/** fsync a directory so a rename into it is durable. */
void
syncDirectoryOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        fatal("snapshot %s: cannot open directory for fsync: %s",
              path.c_str(), std::strerror(errno));
    }
    if (::fsync(fd) != 0) {
        const int error = errno;
        ::close(fd);
        fatal("snapshot %s: directory fsync failed: %s", path.c_str(),
              std::strerror(error));
    }
    ::close(fd);
}

} // namespace

void
SnapshotWriter::addSection(const std::string &name,
                           std::vector<std::uint8_t> payload)
{
    PCMSCRUB_ASSERT(!name.empty() && name.size() <= maxSectionName,
                    "snapshot section name '%s' has bad length",
                    name.c_str());
    PCMSCRUB_ASSERT(sections_.size() < maxSections,
                    "too many snapshot sections");
    for (const auto &section : sections_) {
        PCMSCRUB_ASSERT(section.name != name,
                        "duplicate snapshot section '%s'", name.c_str());
    }
    sections_.push_back(Section{name, std::move(payload)});
}

std::vector<std::uint8_t>
SnapshotWriter::serialize() const
{
    PCMSCRUB_ASSERT(!sections_.empty(), "snapshot has no sections");

    SnapshotSink sink;
    for (const char c : snapshotMagic)
        sink.u8(static_cast<std::uint8_t>(c));
    sink.u32(snapshotFormatVersion);

    std::uint64_t total = headerSize;
    for (const auto &section : sections_)
        total += 4 + section.name.size() + 8 + 4 + section.payload.size();
    sink.u64(total);

    sink.u64(fingerprint_);
    sink.u32(static_cast<std::uint32_t>(sections_.size()));

    for (const auto &section : sections_) {
        sink.u32(static_cast<std::uint32_t>(section.name.size()));
        for (const char c : section.name)
            sink.u8(static_cast<std::uint8_t>(c));
        sink.u64(section.payload.size());
        // CRC over name + payload so corruption can't re-label a
        // section without tripping the checksum.
        std::uint32_t crc = crc32(
            reinterpret_cast<const std::uint8_t *>(section.name.data()),
            section.name.size());
        crc = crc32(section.payload.data(), section.payload.size(), crc);
        sink.u32(crc);
        for (const auto byte : section.payload)
            sink.u8(byte);
    }

    std::vector<std::uint8_t> bytes = sink.takeBytes();
    PCMSCRUB_ASSERT(bytes.size() == total,
                    "snapshot length accounting is wrong");
    return bytes;
}

void
SnapshotWriter::writeFile(const std::string &path) const
{
    const std::vector<std::uint8_t> bytes = serialize();
    const std::string temp = path + ".tmp";

    const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0) {
        fatal("snapshot %s: cannot create temp file: %s", temp.c_str(),
              std::strerror(errno));
    }

    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + written,
                                  bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int error = errno;
            ::close(fd);
            fatal("snapshot %s: write failed: %s", temp.c_str(),
                  std::strerror(error));
        }
        written += static_cast<std::size_t>(n);
    }

    if (::fsync(fd) != 0) {
        const int error = errno;
        ::close(fd);
        fatal("snapshot %s: fsync failed: %s", temp.c_str(),
              std::strerror(error));
    }
    if (::close(fd) != 0) {
        fatal("snapshot %s: close failed: %s", temp.c_str(),
              std::strerror(errno));
    }

    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        fatal("snapshot %s: rename into place failed: %s", path.c_str(),
              std::strerror(errno));
    }
    syncDirectoryOf(path);
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes,
                               std::string context)
    : bytes_(std::move(bytes)), context_(std::move(context))
{
    const std::string error = parse();
    if (!error.empty())
        fatal("%s", error.c_str());
}

std::string
SnapshotReader::parse()
{
    std::size_t cursor = 0;
    bool truncated = false;
    const auto describe = [this](const std::string &what) {
        return "snapshot " + context_ + ": " + what;
    };
    const auto need = [&](std::size_t count) {
        if (count > bytes_.size() - cursor) {
            truncated = true;
            return false;
        }
        return true;
    };
    const auto readU32 = [&]() -> std::uint32_t {
        if (!need(4))
            return 0;
        std::uint32_t value = 0;
        for (int i = 3; i >= 0; --i)
            value = (value << 8) | bytes_[cursor + i];
        cursor += 4;
        return value;
    };
    const auto readU64 = [&]() -> std::uint64_t {
        if (!need(8))
            return 0;
        std::uint64_t value = 0;
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | bytes_[cursor + i];
        cursor += 8;
        return value;
    };

    if (bytes_.size() < headerSize)
        return describe("file is shorter than the container header");

    for (const char expected : snapshotMagic) {
        if (bytes_[cursor++] != static_cast<std::uint8_t>(expected))
            return describe("bad magic (not a pcmscrub snapshot)");
    }

    const std::uint32_t version = readU32();
    if (version != snapshotFormatVersion) {
        return describe("unsupported format version " +
                        std::to_string(version) + " (this build reads "
                        "version " +
                        std::to_string(snapshotFormatVersion) + ")");
    }

    const std::uint64_t declared = readU64();
    if (declared != bytes_.size()) {
        return describe("declared length " + std::to_string(declared) +
                        " does not match the actual " +
                        std::to_string(bytes_.size()) +
                        " bytes (truncated or padded file)");
    }
    if (declared > maxContainerBytes)
        return describe("container larger than the 1 GiB limit");

    fingerprint_ = readU64();

    const std::uint32_t count = readU32();
    if (count == 0 || count > maxSections)
        return describe("section count outside 1..64");

    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t nameLen = readU32();
        if (truncated)
            return describe("truncated (a header field is cut off)");
        if (nameLen == 0 || nameLen > maxSectionName)
            return describe("section name length outside 1..64");
        if (!need(nameLen))
            return describe("truncated (a section name is cut off)");
        std::string name(
            reinterpret_cast<const char *>(bytes_.data() + cursor),
            nameLen);
        cursor += nameLen;

        const std::uint64_t payloadLen = readU64();
        const std::uint32_t storedCrc = readU32();
        if (truncated)
            return describe("truncated (a header field is cut off)");
        if (payloadLen > bytes_.size() - cursor)
            return describe("section payload extends past the file end");

        std::uint32_t crc = crc32(
            reinterpret_cast<const std::uint8_t *>(name.data()),
            name.size());
        crc = crc32(bytes_.data() + cursor,
                    static_cast<std::size_t>(payloadLen), crc);
        if (crc != storedCrc) {
            return describe("checksum mismatch in section '" + name +
                            "' (corrupted bytes)");
        }

        for (const auto &section : sections_) {
            if (section.name == name)
                return describe("duplicate section '" + name + "'");
        }
        sections_.push_back(Section{std::move(name), cursor,
                                    static_cast<std::size_t>(payloadLen)});
        cursor += static_cast<std::size_t>(payloadLen);
    }

    if (cursor != bytes_.size())
        return describe("trailing bytes after the last section");
    return std::string();
}

namespace {

/** Slurp `path`; false (with diagnostic) instead of fatal() on error. */
bool
readSnapshotBytes(const std::string &path,
                  std::vector<std::uint8_t> &bytes, std::string &error)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "snapshot " + path + ": cannot open: " +
                std::strerror(errno);
        return false;
    }

    std::uint8_t buffer[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int readError = errno;
            ::close(fd);
            error = "snapshot " + path + ": read failed: " +
                    std::strerror(readError);
            return false;
        }
        if (n == 0)
            break;
        bytes.insert(bytes.end(), buffer, buffer + n);
        if (bytes.size() > maxContainerBytes) {
            ::close(fd);
            error = "snapshot " + path +
                    ": file larger than the 1 GiB limit";
            return false;
        }
    }
    ::close(fd);
    return true;
}

} // namespace

SnapshotReader
SnapshotReader::fromFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string error;
    if (!readSnapshotBytes(path, bytes, error))
        fatal("%s", error.c_str());
    return SnapshotReader(std::move(bytes), path);
}

std::optional<SnapshotReader>
SnapshotReader::tryFromFile(const std::string &path, std::string *error)
{
    std::vector<std::uint8_t> bytes;
    std::string diagnostic;
    if (!readSnapshotBytes(path, bytes, diagnostic)) {
        if (error != nullptr)
            *error = diagnostic;
        return std::nullopt;
    }

    SnapshotReader reader;
    reader.bytes_ = std::move(bytes);
    reader.context_ = path;
    diagnostic = reader.parse();
    if (!diagnostic.empty()) {
        if (error != nullptr)
            *error = diagnostic;
        return std::nullopt;
    }
    return reader;
}

bool
SnapshotReader::hasSection(const std::string &name) const
{
    for (const auto &section : sections_) {
        if (section.name == name)
            return true;
    }
    return false;
}

SnapshotSource
SnapshotReader::section(const std::string &name) const
{
    for (const auto &section : sections_) {
        if (section.name == name) {
            return SnapshotSource(bytes_.data() + section.offset,
                                  section.size,
                                  context_ + " section '" + name + "'");
        }
    }
    fatal("snapshot %s: required section '%s' is missing",
          context_.c_str(), name.c_str());
}

void
rotateSnapshot(const std::string &path)
{
    if (::access(path.c_str(), F_OK) != 0)
        return;
    const std::string previous = path + ".1";
    if ((::unlink(previous.c_str()) != 0 && errno != ENOENT) ||
        ::link(path.c_str(), previous.c_str()) != 0) {
        fatal("snapshot %s: rotation to %s failed: %s", path.c_str(),
              previous.c_str(), std::strerror(errno));
    }
    syncDirectoryOf(path);
}

std::optional<SnapshotReader>
openNewestValidSnapshot(const std::string &path,
                        const std::uint64_t *expectedFingerprint,
                        std::string *failure)
{
    const std::string candidates[] = {path, path + ".1"};
    std::string combined;
    for (const auto &candidate : candidates) {
        std::string error;
        auto reader = SnapshotReader::tryFromFile(candidate, &error);
        if (reader.has_value() && expectedFingerprint != nullptr &&
            reader->fingerprint() != *expectedFingerprint) {
            error = "snapshot " + candidate +
                    ": fingerprint mismatch (snapshot was written by a "
                    "different device/run configuration)";
            reader.reset();
        }
        if (reader.has_value()) {
            // Only warn when we skipped the newer candidate: the
            // rotation being absent or stale is the normal case.
            if (&candidate != &candidates[0]) {
                warn("%s; falling back to rotated snapshot %s",
                     combined.c_str(), candidate.c_str());
            }
            return reader;
        }
        if (!combined.empty())
            combined += "; ";
        combined += error;
    }
    if (failure != nullptr)
        *failure = combined;
    return std::nullopt;
}

} // namespace pcmscrub
