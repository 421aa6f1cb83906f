#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pcmscrub {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
    PCMSCRUB_ASSERT(!columns_.empty(), "table needs at least one column");
}

Table &
Table::row()
{
    rows_.emplace_back();
    rows_.back().reserve(columns_.size());
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    PCMSCRUB_ASSERT(!rows_.empty(), "cell() before row()");
    PCMSCRUB_ASSERT(rows_.back().size() < columns_.size(),
                    "too many cells in row of table '%s'", title_.c_str());
    rows_.back().push_back(value);
    return *this;
}

Table &
Table::cell(const char *value)
{
    return cell(std::string(value));
}

Table &
Table::cell(double value, int precision)
{
    std::ostringstream out;
    out.precision(precision);
    out << std::fixed << value;
    return cell(out.str());
}

Table &
Table::cellSci(double value, int precision)
{
    std::ostringstream out;
    out.precision(precision);
    out << std::scientific << value;
    return cell(out.str());
}

Table &
Table::cell(std::uint64_t value)
{
    return cell(std::to_string(value));
}

Table &
Table::cell(unsigned value)
{
    return cell(std::to_string(value));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::size_t line = 0;
    for (const auto width : widths)
        line += width + 2;

    std::printf("\n== %s ==\n", title_.c_str());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    columns_[c].c_str());
    std::printf("\n%s\n", std::string(line, '-').c_str());
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(widths[c]),
                        row[c].c_str());
        std::printf("\n");
    }
    std::fflush(stdout);
}

bool
Table::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write CSV to %s", path.c_str());
        return false;
    }
    for (std::size_t c = 0; c < columns_.size(); ++c)
        out << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
    return static_cast<bool>(out);
}

} // namespace pcmscrub
