#include "common/config.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pcmscrub {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

} // namespace

ConfigFile
ConfigFile::parse(const std::string &text, const std::string &origin)
{
    ConfigFile config;
    config.origin_ = origin;
    std::istringstream in(text);
    std::string line;
    std::string section;
    unsigned lineNumber = 0;
    while (std::getline(in, line)) {
        ++lineNumber;
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#' ||
            stripped[0] == ';')
            continue;
        if (stripped.front() == '[') {
            if (stripped.back() != ']' || stripped.size() < 3) {
                fatal("%s:%u: malformed section header '%s'",
                      origin.c_str(), lineNumber, stripped.c_str());
            }
            section = trim(stripped.substr(1, stripped.size() - 2));
            if (section.empty()) {
                fatal("%s:%u: empty section name", origin.c_str(),
                      lineNumber);
            }
            continue;
        }
        const std::size_t equals = stripped.find('=');
        if (equals == std::string::npos) {
            fatal("%s:%u: expected 'key = value', got '%s'",
                  origin.c_str(), lineNumber, stripped.c_str());
        }
        const std::string key = trim(stripped.substr(0, equals));
        const std::string value = trim(stripped.substr(equals + 1));
        if (key.empty()) {
            fatal("%s:%u: empty key", origin.c_str(), lineNumber);
        }
        const std::string full =
            section.empty() ? key : section + "." + key;
        if (config.values_.count(full)) {
            fatal("%s:%u: duplicate key '%s'", origin.c_str(),
                  lineNumber, full.c_str());
        }
        config.values_[full] = value;
    }
    return config;
}

ConfigFile
ConfigFile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file %s", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

bool
ConfigFile::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
ConfigFile::getString(const std::string &key,
                      const std::string &fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    return it->second;
}

double
ConfigFile::getDouble(const std::string &key, double fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
        fatal("%s: key '%s' is not a number: '%s'", origin_.c_str(),
              key.c_str(), it->second.c_str());
    }
    return value;
}

std::uint64_t
ConfigFile::getInt(const std::string &key,
                   std::uint64_t fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0') {
        fatal("%s: key '%s' is not an integer: '%s'", origin_.c_str(),
              key.c_str(), it->second.c_str());
    }
    return value;
}

bool
ConfigFile::getBool(const std::string &key, bool fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    const std::string &value = it->second;
    if (value == "true" || value == "yes" || value == "on" ||
        value == "1")
        return true;
    if (value == "false" || value == "no" || value == "off" ||
        value == "0")
        return false;
    fatal("%s: key '%s' is not a boolean: '%s'", origin_.c_str(),
          key.c_str(), value.c_str());
}

std::vector<std::string>
ConfigFile::unusedKeys() const
{
    std::vector<std::string> unused;
    for (const auto &[key, value] : values_) {
        if (!consumed_.count(key))
            unused.push_back(key);
    }
    return unused;
}

} // namespace pcmscrub
