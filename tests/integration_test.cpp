/**
 * @file
 * Cross-module integration tests: the paper's qualitative claims must
 * hold end-to-end on the benchmark suite — configuration orderings
 * (Perfect >= Limit >= Simple >= baseline), CVU bandwidth effects,
 * LCT classification quality, and the dependence-bound benchmarks'
 * outsized speedups.
 */

#include <gtest/gtest.h>

#include "core/config.hh"
#include "sim/pipeline_driver.hh"
#include "vm/interpreter.hh"
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
using workloads::findWorkload;

isa::Program
prog(const std::string &name, CodeGen cg = CodeGen::Ppc,
     unsigned scale = 1)
{
    return findWorkload(name).build(cg, scale);
}

TEST(Integration, LocalityProfilesMatchPaperShape)
{
    // The paper's three poor-locality benchmarks stay poor; its
    // high-locality benchmarks stay high (depth 16).
    for (const char *low : {"cjpeg", "swm256", "tomcatv"}) {
        auto p = sim::profileLocality(prog(low));
        EXPECT_LT(p.total().pctDepthN(), 40.0) << low;
    }
    for (const char *high : {"eqntott", "gperf", "hydro2d", "xlisp"}) {
        auto p = sim::profileLocality(prog(high));
        EXPECT_GT(p.total().pctDepthN(), 70.0) << high;
    }
}

TEST(Integration, Depth16DominatesDepth1)
{
    for (const auto &w : workloads::allWorkloads()) {
        auto p = sim::profileLocality(w.build(CodeGen::Ppc, 1));
        EXPECT_GE(p.total().pctDepthN(), p.total().pctDepth1() - 1e-9)
            << w.name;
    }
}

TEST(Integration, AddressLoadsMoreLocalThanData)
{
    // Paper Figure 2: address loads tend to have better locality than
    // data loads. Check on the aggregate over the suite.
    std::uint64_t addr_hits = 0, addr_loads = 0;
    std::uint64_t data_hits = 0, data_loads = 0;
    for (const auto &w : workloads::allWorkloads()) {
        auto p = sim::profileLocality(w.build(CodeGen::Ppc, 1));
        for (auto c : {isa::DataClass::InstAddr,
                       isa::DataClass::DataAddr}) {
            addr_hits += p.byClass(c).hitsDepthN;
            addr_loads += p.byClass(c).loads;
        }
        for (auto c : {isa::DataClass::IntData,
                       isa::DataClass::FpData}) {
            data_hits += p.byClass(c).hitsDepthN;
            data_loads += p.byClass(c).loads;
        }
    }
    ASSERT_GT(addr_loads, 0u);
    ASSERT_GT(data_loads, 0u);
    double addr_pct = 100.0 * static_cast<double>(addr_hits) /
                      static_cast<double>(addr_loads);
    double data_pct = 100.0 * static_cast<double>(data_hits) /
                      static_cast<double>(data_loads);
    EXPECT_GT(addr_pct, data_pct);
}

TEST(Integration, ConfigOrderingOn620)
{
    // IPC must be weakly ordered: Perfect >= Limit and every LVP
    // config >= baseline (small tolerance: second-order structural
    // effects are real, the paper itself reports a 0.999 entry).
    for (const char *name : {"grep", "gawk", "compress"}) {
        auto p = prog(name);
        auto base =
            sim::runPpc620(p, Ppc620Config::base620(), std::nullopt);
        auto simple = sim::runPpc620(p, Ppc620Config::base620(),
                                     LvpConfig::simple());
        auto limit = sim::runPpc620(p, Ppc620Config::base620(),
                                    LvpConfig::limit());
        auto perfect = sim::runPpc620(p, Ppc620Config::base620(),
                                      LvpConfig::perfect());
        EXPECT_GE(simple.timing.ipc(), base.timing.ipc() * 0.995)
            << name;
        EXPECT_GE(limit.timing.ipc(), simple.timing.ipc() * 0.98)
            << name;
        EXPECT_GE(perfect.timing.ipc(), base.timing.ipc()) << name;
    }
}

TEST(Integration, GrepAndGawkAreDependenceBoundWinners)
{
    // Paper Section 6.1: grep and gawk gain dramatically because load
    // latencies dominate their critical paths.
    double grep_speedup, cjpeg_speedup;
    {
        auto p = prog("grep");
        auto base =
            sim::runPpc620(p, Ppc620Config::base620(), std::nullopt);
        auto with = sim::runPpc620(p, Ppc620Config::base620(),
                                   LvpConfig::simple());
        grep_speedup = with.timing.ipc() / base.timing.ipc();
    }
    {
        auto p = prog("cjpeg");
        auto base =
            sim::runPpc620(p, Ppc620Config::base620(), std::nullopt);
        auto with = sim::runPpc620(p, Ppc620Config::base620(),
                                   LvpConfig::simple());
        cjpeg_speedup = with.timing.ipc() / base.timing.ipc();
    }
    EXPECT_GT(grep_speedup, 1.01);
    EXPECT_GT(grep_speedup, cjpeg_speedup)
        << "high-locality dependence-bound code must gain more than "
           "the low-locality benchmark";
}

TEST(Integration, AlphaGainsFromLvp)
{
    auto p = prog("grep", CodeGen::Alpha);
    auto base =
        sim::runAlpha21164(p, AlphaConfig::base21164(), std::nullopt);
    auto with = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                   LvpConfig::simple());
    auto perfect = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                      LvpConfig::perfect());
    EXPECT_GT(with.timing.ipc(), base.timing.ipc());
    EXPECT_GE(perfect.timing.ipc(), with.timing.ipc() * 0.98);
}

TEST(Integration, CvuReducesAlphaCacheTraffic)
{
    // Paper Section 6.1: constant loads bypass the cache entirely on
    // the 21164, reducing the per-instruction miss rate.
    auto p = prog("compress", CodeGen::Alpha);
    auto base =
        sim::runAlpha21164(p, AlphaConfig::base21164(), std::nullopt);
    auto with = sim::runAlpha21164(p, AlphaConfig::base21164(),
                                   LvpConfig::constant());
    EXPECT_GT(with.timing.constLoads, 0u);
    EXPECT_LT(with.timing.l1Accesses, base.timing.l1Accesses)
        << "constant loads must not access the cache";
}

TEST(Integration, LctSeparatesPredictableLoads)
{
    // Table 3's shape: on high-locality benchmarks the LCT identifies
    // most predictable loads and most unpredictable loads.
    auto eq = sim::runPredictorOnly(prog("eqntott"), LvpConfig::simple());
    EXPECT_GT(eq.predHitRate(), 60.0);
    auto gp = sim::runPredictorOnly(prog("gperf"), LvpConfig::simple());
    EXPECT_GT(gp.unpredHitRate(), 60.0);
    EXPECT_GT(gp.predHitRate(), 30.0);
}

TEST(Integration, ConstantConfigFindsConstants)
{
    // Table 4's shape: constant-identification rates are significant
    // for high-locality codes, near zero for tomcatv.
    auto hi = sim::runPredictorOnly(prog("gperf"), LvpConfig::constant());
    EXPECT_GT(hi.constantRate(), 10.0);
    auto lo = sim::runPredictorOnly(prog("tomcatv"), LvpConfig::constant());
    EXPECT_LT(lo.constantRate(), hi.constantRate());
}

TEST(Integration, LimitPredictsMoreThanSimple)
{
    for (const char *name : {"eqntott", "xlisp", "cc1"}) {
        auto simple = sim::runPredictorOnly(prog(name), LvpConfig::simple());
        auto limit = sim::runPredictorOnly(prog(name), LvpConfig::limit());
        double s_rate = simple.predictionRate() * simple.accuracy();
        double l_rate = limit.predictionRate() * limit.accuracy();
        EXPECT_GE(l_rate, s_rate * 0.98) << name;
    }
}

TEST(Integration, BankConflictsExistAndCvuReducesThem)
{
    // Figure 9's shape, on the store-heavy benchmarks.
    std::uint64_t base_conflicts = 0, const_conflicts = 0;
    for (const char *name : {"compress", "gperf", "quick", "sc"}) {
        auto p = prog(name);
        auto base = sim::runPpc620(p, Ppc620Config::plus620(),
                                   std::nullopt);
        auto with = sim::runPpc620(p, Ppc620Config::plus620(),
                                   LvpConfig::constant());
        base_conflicts += base.timing.bankConflictCycles;
        const_conflicts += with.timing.bankConflictCycles;
    }
    EXPECT_GT(base_conflicts, 0u)
        << "the 620+ must exhibit bank conflicts";
    EXPECT_LT(const_conflicts, base_conflicts)
        << "the CVU removes cache accesses and with them conflicts";
}

TEST(Integration, TimingCyclesScaleWithWork)
{
    auto p1 = prog("grep", CodeGen::Ppc, 1);
    auto p2 = prog("grep", CodeGen::Ppc, 2);
    auto r1 = sim::runPpc620(p1, Ppc620Config::base620(), std::nullopt);
    auto r2 = sim::runPpc620(p2, Ppc620Config::base620(), std::nullopt);
    EXPECT_GT(r2.timing.cycles, r1.timing.cycles);
}

TEST(Integration, AnnotatorPreservesStream)
{
    // The LVP annotator must forward every record unchanged except
    // for the pred field.
    class Check : public trace::TraceSink
    {
      public:
        void
        consume(const trace::TraceRecord &rec) override
        {
            ++n;
            if (rec.inst->load())
                ++loads;
            if (rec.pred != trace::PredState::None)
                ++annotated;
        }
        std::uint64_t n = 0, loads = 0, annotated = 0;
    } check;

    auto p = prog("grep");
    vm::Interpreter interp(p);
    core::LvpAnnotator annot(LvpConfig::simple(), check);
    interp.run(&annot);
    auto func = sim::runFunctional(p);
    EXPECT_EQ(check.n, func.stats.instructions());
    EXPECT_EQ(check.loads, func.stats.loads());
    EXPECT_GT(check.annotated, 0u);
    EXPECT_LE(check.annotated, check.loads);
    EXPECT_EQ(check.annotated, annot.unit().stats().correct +
                                   annot.unit().stats().incorrect +
                                   annot.unit().stats().constants);
}

} // namespace
} // namespace lvplib
