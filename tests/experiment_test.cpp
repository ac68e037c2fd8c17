/**
 * @file
 * Shape checks for the experiment runners: every table/figure
 * runner's first section must have the right number of rows for the
 * paper's benchmark suite. (The heavyweight timing sweeps are exercised by
 * lvpbench; here we verify the cheap ones fully and the
 * configuration tables exactly.)
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/config.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
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

TEST(Experiment, SuiteHas17PaperBenchmarks)
{
    EXPECT_EQ(NumBench, 17u) << "Table 1 of the paper lists 17 rows";
}

TEST(Experiment, Table1HasOneRowPerBenchmark)
{
    auto t = table1Benchmarks(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench);
}

TEST(Experiment, Fig1RowsPerBenchmarkPlusMean)
{
    auto t = fig1ValueLocality(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

TEST(Experiment, Fig2RowsPerBenchmark)
{
    auto t = fig2LocalityByType(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench);
}

TEST(Experiment, Table2MatchesPaperConfigurations)
{
    auto t = table2Configs(tiny())[0].table;
    EXPECT_EQ(t.rows(), 4u);
    auto cfgs = core::LvpConfig::paperConfigs();
    ASSERT_EQ(cfgs.size(), 4u);
    EXPECT_EQ(cfgs[0].name, "Simple");
    EXPECT_EQ(cfgs[0].lvptEntries, 1024u);
    EXPECT_EQ(cfgs[0].historyDepth, 1u);
    EXPECT_EQ(cfgs[0].lctEntries, 256u);
    EXPECT_EQ(cfgs[0].lctBits, 2u);
    EXPECT_EQ(cfgs[0].cvuEntries, 32u);
    EXPECT_EQ(cfgs[1].name, "Constant");
    EXPECT_EQ(cfgs[1].lctBits, 1u);
    EXPECT_EQ(cfgs[1].cvuEntries, 128u);
    EXPECT_EQ(cfgs[2].name, "Limit");
    EXPECT_EQ(cfgs[2].lvptEntries, 4096u);
    EXPECT_EQ(cfgs[2].historyDepth, 16u);
    EXPECT_EQ(cfgs[2].lctEntries, 1024u);
    EXPECT_EQ(cfgs[3].name, "Perfect");
    EXPECT_TRUE(cfgs[3].perfectPrediction);
}

TEST(Experiment, Table3RowsAndGm)
{
    auto t = table3LctHitRates(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

TEST(Experiment, Table4RowsAndMean)
{
    auto t = table4ConstantRates(tiny())[0].table;
    EXPECT_EQ(t.rows(), NumBench + 1);
}

TEST(Experiment, Table5HasLatencyRows)
{
    auto t = table5Latencies(tiny())[0].table;
    EXPECT_EQ(t.rows(), 8u);
}

TEST(Experiment, ReportPrintsBannerAndTable)
{
    std::ostringstream os;
    printExperiment(os, "Test Title", "expectation text",
                    table2Configs(tiny())[0].table, tiny());
    auto out = os.str();
    EXPECT_NE(out.find("Test Title"), std::string::npos);
    EXPECT_NE(out.find("Simple"), std::string::npos);
    EXPECT_NE(out.find("expectation text"), std::string::npos);
}

TEST(Experiment, OptionsFromEnvRespectsScale)
{
    setenv("LVPLIB_SCALE", "7", 1);
    EXPECT_EQ(ExperimentOptions::fromEnv().scale, 7u);
    setenv("LVPLIB_SCALE", "0", 1);
    EXPECT_GE(ExperimentOptions::fromEnv().scale, 1u);
    unsetenv("LVPLIB_SCALE");
}

} // namespace
} // namespace lvplib::sim
