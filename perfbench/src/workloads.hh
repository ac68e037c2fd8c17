/**
 * @file
 * The benchmark's workloads. Each runs in its own process, set up
 * first, then measures whole passes over its work until the requested
 * time is spent, checks every output, and reports metrics by name.
 *
 *  - suite: every experiment of sim::experimentSuite() at scale 4,
 *    serial, from a cold private trace directory, checked against
 *    bench/golden/metrics.json.
 *  - timing: composed replays of warm scale-4 traces into the 620,
 *    620+ and 21164 timing models with and without LVP, checked
 *    against recorded per-(program, consumer) digests.
 *  - predict: composed replays of warm scale-16 traces into every
 *    registry predictor and the four paper LVP units, no timing model,
 *    checked the same way.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** What one benchmark process runs. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;  ///< length of the measured phase
    bool trace = false;   ///< traced run: per-layer metrics
    std::string repo;     ///< repository root (golden + expected files)
    std::string work;     ///< directory for trace files (emptied)
    std::string record;   ///< write expected digests here, then stop
};

struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Host, build and run parameters the numbers depend on. */
    std::map<std::string, std::string> stamp;
};

/** End-to-end metric names with units (untraced runs report these). */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** Per-layer metric names with units (traced runs report these). */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Run one workload. Throws std::runtime_error on a setup failure. */
Result runWorkload(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
