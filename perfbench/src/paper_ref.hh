/**
 * @file
 * The paper's headline numbers, each tied to the golden metric key the
 * reproduction publishes for it, and the mean relative gap between the
 * two (paper_gap_pct). The paper values are those EXPERIMENTS.md reads
 * off the paper's Figure 6, Table 6, Table 3 and Table 4.
 */

#ifndef PERFBENCH_PAPER_REF_HH
#define PERFBENCH_PAPER_REF_HH

#include <functional>
#include <optional>
#include <span>

namespace perfbench
{

/** One reference row. */
struct PaperRef
{
    const char *source; ///< paper figure/table and column
    double paper;       ///< the paper's value
    const char *key;    ///< golden metric key (bench/golden/metrics.json)
    bool speedup;       ///< compare speedups on their gain (s - 1)
};

/** The 20 reference rows. */
std::span<const PaperRef> paperRefs();

/**
 * Mean relative error, in percent, of the reproduced values against
 * the paper values. @p lookup returns a metric's value by key, or
 * nullopt when it is missing (then the result is nullopt too).
 */
std::optional<double>
paperGapPct(const std::function<std::optional<double>(const char *)> &lookup);

} // namespace perfbench

#endif // PERFBENCH_PAPER_REF_HH
