/**
 * @file
 * A plain-text table renderer used by the benchmark harnesses to print
 * the paper's tables and figure series in aligned columns.
 */

#ifndef LVPLIB_UTIL_TABLE_HH
#define LVPLIB_UTIL_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace lvplib
{

/**
 * Collects rows of string cells and renders them with column-aligned
 * padding. The first added row is treated as the header.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Append one cell to the last data row. */
    void cell(std::string s) { rows_.back().push_back(std::move(s)); }

    /** Render the table to @p os with a separator under the header. */
    void print(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t rows() const { return rows_.size(); }

    /** Format helpers for common cell types. */
    static std::string fmtPct(double v, int prec = 1);
    static std::string fmtDouble(double v, int prec = 3);
    static std::string fmtCount(std::uint64_t v);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace lvplib

#endif // LVPLIB_UTIL_TABLE_HH
