/**
 * @file
 * Minimal INI-style configuration registry.
 *
 * Experiments are driven by many numeric knobs (device constants,
 * policy parameters, demand rates); the registry lets examples and
 * users keep whole configurations in version-controlled files
 * instead of command lines. Format:
 *
 *     # comment
 *     [device]
 *     sigma_log_r = 0.07
 *
 *     [policy]
 *     kind = combined
 *
 * Keys are addressed as "section.key". Parsing is strict: malformed
 * lines are fatal (bad experiment configs should fail loudly, not
 * silently fall back to defaults), and consumers can ask for the
 * keys they did not recognise.
 */

#ifndef PCMSCRUB_COMMON_CONFIG_HH
#define PCMSCRUB_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pcmscrub {

/**
 * Parsed key-value configuration with typed accessors.
 */
class ConfigFile
{
  public:
    ConfigFile() = default;

    /** Parse from text; fatal() on malformed input. */
    static ConfigFile parse(const std::string &text,
                            const std::string &origin = "<memory>");

    /** Load and parse a file; fatal() if unreadable or malformed. */
    static ConfigFile load(const std::string &path);

    bool has(const std::string &key) const;

    /**
     * Typed accessors: return the default when the key is absent;
     * fatal() when present but unparseable (silent coercion hides
     * config typos). Accessing a key marks it consumed.
     */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    double getDouble(const std::string &key, double fallback) const;
    std::uint64_t getInt(const std::string &key,
                         std::uint64_t fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    /** Keys never consumed by any accessor (likely typos). */
    std::vector<std::string> unusedKeys() const;

  private:
    std::string origin_;
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> consumed_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_CONFIG_HH
