#include "common/json.hh"

#include <cstdio>

#include "common/logging.hh"

namespace pcmscrub {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

JsonObject &
JsonObject::str(const std::string &key, const std::string &value)
{
    fields_.emplace_back(key, "\"" + jsonEscape(value) + "\"");
    return *this;
}

JsonObject &
JsonObject::u64(const std::string &key, std::uint64_t value)
{
    fields_.emplace_back(key, std::to_string(value));
    return *this;
}

JsonObject &
JsonObject::num(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
    return *this;
}

JsonObject &
JsonObject::boolean(const std::string &key, bool value)
{
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &key, std::string rendered)
{
    fields_.emplace_back(key, std::move(rendered));
    return *this;
}

std::string
JsonObject::render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "\"" + jsonEscape(fields_[i].first) + "\": " +
            fields_[i].second;
    }
    out += "}";
    return out;
}

void
JsonArray::pushRaw(std::string rendered)
{
    items_.push_back(std::move(rendered));
}

std::string
JsonArray::render() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += items_[i];
    }
    out += "]";
    return out;
}

void
writeJsonFile(const std::string &path, const JsonObject &object)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        fatal("cannot open %s for writing", path.c_str());
    const std::string body = object.render() + "\n";
    const std::size_t written =
        std::fwrite(body.data(), 1, body.size(), file);
    if (written != body.size() || std::fclose(file) != 0)
        fatal("short write to %s", path.c_str());
}

} // namespace pcmscrub
