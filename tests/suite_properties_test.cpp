/**
 * @file
 * Suite-wide conservation and monotonicity properties, parameterized
 * over every benchmark: the timing models must retire exactly the
 * traced instruction count on both machines, larger inputs must cost
 * more cycles, and the Limit configuration must predict at least as
 * many loads correctly as Simple.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/config.hh"
#include "sim/pipeline_driver.hh"
#include "uarch/machine_config.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

using core::LvpConfig;
using uarch::AlphaConfig;
using uarch::Ppc620Config;
using workloads::CodeGen;

class SuiteProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteProperty, TimingModelsConserveInstructions)
{
    const auto &w = workloads::findWorkload(GetParam());
    auto ppc_prog = w.build(CodeGen::Ppc, 1);
    auto alpha_prog = w.build(CodeGen::Alpha, 1);
    auto ppc_func = sim::runFunctional(ppc_prog);
    auto alpha_func = sim::runFunctional(alpha_prog);

    auto ooo = sim::runPpc620(ppc_prog, Ppc620Config::base620(),
                              LvpConfig::simple());
    EXPECT_EQ(ooo.timing.instructions, ppc_func.stats.instructions());
    EXPECT_EQ(ooo.timing.loads, ppc_func.stats.loads());
    EXPECT_EQ(ooo.timing.stores, ppc_func.stats.stores());

    auto io = sim::runAlpha21164(alpha_prog, AlphaConfig::base21164(),
                                 LvpConfig::simple());
    EXPECT_EQ(io.timing.instructions, alpha_func.stats.instructions());
    EXPECT_EQ(io.timing.loads, alpha_func.stats.loads());
}

TEST_P(SuiteProperty, CyclesGrowWithInputScale)
{
    const auto &w = workloads::findWorkload(GetParam());
    auto p1 = w.build(CodeGen::Ppc, 1);
    auto p2 = w.build(CodeGen::Ppc, 2);
    auto c1 = sim::runPpc620(p1, Ppc620Config::base620(), std::nullopt);
    auto c2 = sim::runPpc620(p2, Ppc620Config::base620(), std::nullopt);
    EXPECT_GT(c2.timing.cycles, c1.timing.cycles);
}

TEST_P(SuiteProperty, IpcNeverExceedsMachineWidth)
{
    const auto &w = workloads::findWorkload(GetParam());
    auto prog = w.build(CodeGen::Ppc, 1);
    for (const auto &mc :
         {Ppc620Config::base620(), Ppc620Config::plus620()}) {
        auto run = sim::runPpc620(prog, mc, LvpConfig::perfect());
        EXPECT_LE(run.timing.ipc(), 4.0) << mc.name;
        EXPECT_GT(run.timing.ipc(), 0.0) << mc.name;
    }
    auto alpha = sim::runAlpha21164(w.build(CodeGen::Alpha, 1),
                                    AlphaConfig::base21164(),
                                    LvpConfig::perfect());
    EXPECT_LE(alpha.timing.ipc(), 4.0);
}

TEST_P(SuiteProperty, LimitPredictsAtLeastAsWellAsSimple)
{
    const auto &w = workloads::findWorkload(GetParam());
    auto prog = w.build(CodeGen::Ppc, 1);
    auto simple = sim::runPredictorOnly(prog, LvpConfig::simple());
    auto limit = sim::runPredictorOnly(prog, LvpConfig::limit());
    double s_good =
        static_cast<double>(simple.correct + simple.constants);
    double l_good =
        static_cast<double>(limit.correct + limit.constants);
    // Limit has 4x the LVPT, deeper history with oracle selection,
    // and 4x the LCT; allow a whisker of slack for LCT-training
    // phase effects.
    EXPECT_GE(l_good, s_good * 0.97) << GetParam();
}

TEST_P(SuiteProperty, VerificationHistogramCoversAllPredictions)
{
    const auto &w = workloads::findWorkload(GetParam());
    auto prog = w.build(CodeGen::Ppc, 1);
    auto run = sim::runPpc620(prog, Ppc620Config::base620(),
                              LvpConfig::simple());
    // Every Correct/Constant load records exactly one verification
    // sample.
    EXPECT_EQ(run.timing.verifyLatency.total(),
              run.lvp.correct + run.lvp.constants);
}

std::vector<std::string>
names()
{
    std::vector<std::string> ns;
    for (const auto &w : workloads::allWorkloads())
        ns.push_back(w.name);
    return ns;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteProperty,
                         ::testing::ValuesIn(names()),
                         [](const auto &i) {
                             std::string n = i.param;
                             std::replace(n.begin(), n.end(), '-', '_');
                             return n;
                         });

} // namespace
} // namespace lvplib
