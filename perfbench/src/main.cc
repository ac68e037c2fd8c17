/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload timing --seed 3 --seconds 20 --trace 0 \
 *             --repo . --work .bench_build/work
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": x, "unit": "..."}, ...}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). The line before it, "perfbench-stamp {...}", names the
 * host, build and run parameters the numbers depend on.
 *
 *   perfbench --workload timing --record FILE ...
 * writes the per-(program, consumer) digests of one pass to FILE (the
 * expected outputs under perfbench/expected/).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "obs/json.hh"
#include "workloads.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--repo DIR] [--work DIR] [--record FILE]\n";
    return 2;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    o.repo = ".";
    o.work = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), &end, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), &end);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--repo")
            o.repo = v;
        else if (a == "--work")
            o.work = v;
        else if (a == "--record")
            o.record = v;
        else
            return usage();
        if (end && *end)
            return usage();
    }
    if (o.workload.empty())
        return usage();

    Result r;
    try {
        r = runWorkload(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
    if (!o.record.empty())
        return 0;

    std::cout << "perfbench-stamp {";
    const char *sep = "";
    for (const auto &[k, v] : r.stamp) {
        std::cout << sep << '"' << k << "\": \"" << lvplib::obs::jsonEscape(v)
                  << '"';
        sep = ", ";
    }
    std::cout << "}\n";

    std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::cout << sep << '"' << name << "\": {\"value\": " << number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
