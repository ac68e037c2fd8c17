/**
 * @file
 * Trace-cache directory maintenance: enumerate a shared trace
 * directory, verify every *.trace file, and (optionally) prune the
 * invalid ones plus orphaned *.trace.tmp.<pid>.<seq> files.
 *
 * Temp files need care: trace directories are shared by concurrent
 * lvpbench processes, and a temp file may belong to a live writer
 * that has not yet renamed it into place. Pruning is therefore
 * age-gated — only temps older than tempPruneAgeSeconds (far longer
 * than any write takes) are treated as abandoned by a crashed writer;
 * younger ones are reported but left alone.
 */

#ifndef LVPLIB_TRACE_TRACE_DIR_HH
#define LVPLIB_TRACE_TRACE_DIR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/trace_file.hh"

namespace lvplib::trace
{

/** Age a *.trace.tmp.* file must reach before pruning treats it as
 *  abandoned rather than a possible live concurrent writer. */
constexpr double TempPruneAgeSeconds = 15 * 60;

/** One file found by scanTraceDir(). */
struct TraceDirEntry
{
    std::string path;        ///< full path
    std::string name;        ///< file name only
    bool isTemp = false;     ///< *.trace.tmp.<pid>.<seq>
    bool pruned = false;     ///< deleted by this scan
    TraceVerifyReport report; ///< integrity (traces only)
    double ageSeconds = 0;   ///< since last modification (temps only)
};

/** Everything scanTraceDir() found, name-sorted per category. */
struct TraceDirScan
{
    std::vector<TraceDirEntry> traces;
    std::vector<TraceDirEntry> temps;
    std::size_t invalid = 0;       ///< traces failing verification
    std::size_t prunedCount = 0;   ///< files deleted
    bool ok = false;               ///< directory was readable
    std::string error;             ///< why not, when !ok
};

/**
 * Scan @p dir, verifying every trace file. With @p prune, delete
 * invalid traces (including intact files of another format version)
 * and temp files older than @p tempPruneAgeSeconds.
 */
TraceDirScan scanTraceDir(const std::string &dir, bool prune,
                          double tempPruneAgeSeconds =
                              TempPruneAgeSeconds);

} // namespace lvplib::trace

#endif // LVPLIB_TRACE_TRACE_DIR_HH
