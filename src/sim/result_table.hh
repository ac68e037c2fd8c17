/**
 * @file
 * The result table every experiment runner fills: one call per number
 * prints the cell lvpbench shows and publishes the gauge that
 * --metrics-out exports and --check compares, under the
 * "experiment.row.column" naming convention of obs/metrics.hh. The
 * printed table and the published keys therefore cannot disagree.
 */

#ifndef LVPLIB_SIM_RESULT_TABLE_HH
#define LVPLIB_SIM_RESULT_TABLE_HH

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.hh"

namespace lvplib::sim
{

/**
 * Publish one reproduced number as the non-volatile gauge
 * metricKey(parts). Gauges are idempotent, so a runner may run any
 * number of times per process.
 */
void publish(std::initializer_list<std::string_view> parts, double v);

/** How a column prints its numbers. */
enum class Fmt
{
    Pct,    ///< "12.3%"
    Pct2,   ///< "1.23%"
    Fixed3, ///< "1.234"
    Count,  ///< "4899.0K" (TextTable::fmtCount)
    Int,    ///< "1024"
};

/** One column of a result table. */
struct Column
{
    std::string header;
    std::string key = {};    ///< metric column key; "" = text only
    Fmt fmt = Fmt::Pct;
    bool summarized = false; ///< the summary row covers this column
};

/** A summary statistic over a column: util/stats.hh mean or geomean. */
using Summary = double (*)(const std::vector<double> &);

/**
 * One experiment's table. Column 0 holds the row labels; every other
 * cell fills the next column of the current row, left to right.
 */
class ResultTable
{
  public:
    ResultTable(std::string id, std::vector<Column> columns);

    /** Start a row. Its metric key is @p key, or the label when
     *  @p key is empty; metricKey() sanitizes either. */
    ResultTable &row(std::string label, std::string_view key = {});

    /** Print @p v in the column's format and publish id.row.column. */
    ResultTable &cell(double v);

    /** Print @p shown instead of the formatted value; still publish
     *  @p v. */
    ResultTable &cell(double v, std::string shown);

    /** Print @p s and publish nothing. */
    ResultTable &text(std::string s);

    /**
     * Append the summary row @p label ("GM", "MEAN"): @p fn over the
     * values each summarized column already holds, printed and
     * published under the label's key; "-" in every other column.
     */
    ResultTable &summary(std::string label, Summary fn);

    const TextTable &table() const { return table_; }

  private:
    /** The column the next cell fills. */
    const Column &current() const;

    std::string id_;
    std::vector<Column> columns_;
    std::vector<std::vector<double>> values_; ///< per column
    TextTable table_;
    std::string rowKey_;
    std::size_t col_ = 0; ///< column the next cell fills
};

} // namespace lvplib::sim

#endif // LVPLIB_SIM_RESULT_TABLE_HH
