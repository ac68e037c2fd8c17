/**
 * @file
 * The value-locality profiler behind the paper's Figures 1 and 2.
 *
 * Value locality is measured by counting how often a static load
 * retrieves a value that matches a previously-seen value for that
 * load. Per the paper's footnote 1, history values live in a
 * direct-mapped, untagged table with 1K entries indexed by instruction
 * address, with LRU replacement among the (1 or 16) values per entry —
 * so constructive and destructive interference occur, exactly as in
 * the paper's measurement.
 */

#ifndef LVPLIB_CORE_LOCALITY_PROFILER_HH
#define LVPLIB_CORE_LOCALITY_PROFILER_HH

#include <array>
#include <cstdint>

#include "trace/trace.hh"
#include "util/types.hh"
#include "util/value_history.hh"

namespace lvplib::core
{

/** Hit/total counters for one load population. */
struct LocalityCounts
{
    std::uint64_t loads = 0;
    std::uint64_t hitsDepth1 = 0;  ///< matched the most recent value
    std::uint64_t hitsDepthN = 0;  ///< matched any of the last N values

    double pctDepth1() const;
    double pctDepthN() const;
};

/**
 * What a ValueLocalityProfiler measured. Callers that keep results
 * (the run cache keeps one per program) keep this, not the profiler
 * and its value histories.
 */
struct LoadLocality
{
    LocalityCounts total;                  ///< all loads (Figure 1)
    std::array<LocalityCounts, 4> classes; ///< by isa::DataClass

    /** Per data class (Figure 2). */
    const LocalityCounts &
    byClass(isa::DataClass c) const
    {
        return classes[static_cast<std::size_t>(c)];
    }
};

/**
 * A trace sink that measures load value locality at history depth 1
 * and depth @p deepDepth simultaneously (the deep history's MRU value
 * is exactly what a depth-1 table would hold, because both tables are
 * indexed and replaced identically).
 */
class ValueLocalityProfiler : public trace::TraceSink
{
  public:
    /**
     * @param entries History-table entries (paper: 1024).
     * @param deep_depth Deep history depth (paper: 16).
     */
    explicit ValueLocalityProfiler(std::uint32_t entries = 1024,
                                   std::uint32_t deep_depth = 16);

    void consume(const trace::TraceRecord &rec) override;

    void
    consumeBatch(std::span<const trace::TraceRecord> recs) override
    {
        // Qualified call: one virtual dispatch per batch, not per
        // record.
        for (const trace::TraceRecord &rec : recs)
            ValueLocalityProfiler::consume(rec);
    }

    /** All loads (Figure 1). */
    const LocalityCounts &total() const { return counts_.total; }

    /** Per data class (Figure 2). */
    const LocalityCounts &
    byClass(isa::DataClass c) const
    {
        return counts_.byClass(c);
    }

    /** Everything measured so far. */
    const LoadLocality &counts() const { return counts_; }

    std::uint32_t deepDepth() const { return deepDepth_; }

  private:
    std::uint32_t mask_;
    std::uint32_t deepDepth_;
    ValueHistoryTable table_;
    LoadLocality counts_;
};

} // namespace lvplib::core

#endif // LVPLIB_CORE_LOCALITY_PROFILER_HH
