/**
 * @file
 * Shape tests for the heavyweight timing experiments (Figure 6,
 * Table 6, Figures 7-9) at the unit-test scale: row/column counts
 * match the paper's layout, and the geometric-mean rows parse as
 * sane speedups. These run the full benchmark sweep, so they are the
 * slowest tests in the suite (a few seconds each).
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{
namespace
{

const std::size_t NumBench = workloads::allWorkloads().size();

ExperimentOptions
tiny()
{
    ExperimentOptions o;
    o.scale = 1;
    return o;
}

TEST(ExperimentTiming, Fig6PpcHasBenchRowsPlusGm)
{
    auto t = fig6PpcSpeedups(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

TEST(ExperimentTiming, Fig6AlphaHasBenchRowsPlusGm)
{
    auto t = fig6AlphaSpeedups(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

TEST(ExperimentTiming, Table6HasBenchRowsPlusGm)
{
    auto t = table6Plus620Speedups(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

TEST(ExperimentTiming, Fig7CoversBothMachinesAndAllConfigs)
{
    auto t = fig7VerificationLatency(tiny())[0].table;
    EXPECT_EQ(t.rows(), 2u * 4u) << "620 and 620+ x 4 configurations";
}

TEST(ExperimentTiming, Fig8CoversBothMachinesAndAllConfigs)
{
    auto t = fig8DependencyResolution(tiny())[0].table;
    EXPECT_EQ(t.rows(), 2u * 4u);
}

TEST(ExperimentTiming, Fig9HasBenchRowsPlusMean)
{
    auto t = fig9BankConflicts(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

} // namespace
} // namespace lvplib::sim
