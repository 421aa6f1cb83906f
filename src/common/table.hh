/**
 * @file
 * Console table / CSV emission for benchmark harnesses.
 *
 * Every experiment binary prints its rows through a Table so output
 * is uniform: an aligned human-readable table on stdout and,
 * optionally, a CSV file for plotting.
 */

#ifndef PCMSCRUB_COMMON_TABLE_HH
#define PCMSCRUB_COMMON_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pcmscrub {

/**
 * Column-aligned result table.
 */
class Table
{
  public:
    Table(std::string title, std::vector<std::string> columns);

    /** Start a new row; subsequent cell() calls fill it. */
    Table &row();

    Table &cell(const std::string &value);
    Table &cell(const char *value);
    Table &cell(double value, int precision = 4);

    /** Scientific notation, for probabilities and FIT-style rates. */
    Table &cellSci(double value, int precision = 3);

    Table &cell(std::uint64_t value);
    Table &cell(unsigned value);

    std::size_t rows() const { return rows_.size(); }

    /** Aligned dump to stdout. */
    void print() const;

    /** Write as CSV; returns false (with a warning) on I/O failure. */
    bool writeCsv(const std::string &path) const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_TABLE_HH
