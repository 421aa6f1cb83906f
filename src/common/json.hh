/**
 * @file
 * Minimal machine-readable JSON emission.
 *
 * Originally private to the bench harnesses (BENCH_*.json); the
 * fleet runner's manifest made it library code. Deliberately tiny —
 * ordered key/value rendering, no external dependency, no parsing.
 */

#ifndef PCMSCRUB_COMMON_JSON_HH
#define PCMSCRUB_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pcmscrub {

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &text);

/**
 * Ordered JSON object builder. Keys are emitted in insertion order
 * so the files diff cleanly run-to-run.
 */
class JsonObject
{
  public:
    JsonObject &str(const std::string &key, const std::string &value);
    JsonObject &u64(const std::string &key, std::uint64_t value);
    JsonObject &num(const std::string &key, double value);
    JsonObject &boolean(const std::string &key, bool value);

    /** Embed an already-rendered JSON value (object, array, ...). */
    JsonObject &raw(const std::string &key, std::string rendered);

    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Ordered JSON array of already-rendered values. */
class JsonArray
{
  public:
    void pushRaw(std::string rendered);

    std::size_t size() const { return items_.size(); }

    std::string render() const;

  private:
    std::vector<std::string> items_;
};

/**
 * Write a rendered JSON document to `path` (plus a trailing
 * newline); fatal() on I/O failure so a consumer never reads a
 * silently truncated file.
 */
void writeJsonFile(const std::string &path, const JsonObject &object);

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_JSON_HH
