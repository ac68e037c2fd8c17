/**
 * @file
 * Tests of the benchmark's own machinery: TimedSink leaves every
 * pipeline result byte-identical, the self-time and span arithmetic,
 * and the paper reference table's golden keys.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/config.hh"
#include "core/lvp_unit.hh"
#include "layers.hh"
#include "obs/json.hh"
#include "paper_ref.hh"
#include "uarch/alpha21164.hh"
#include "uarch/machine_config.hh"
#include "uarch/ppc620.hh"
#include "vm/interpreter.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace
{

using namespace lvplib;
using namespace perfbench;

/** Digest of interpreter -> LvpAnnotator -> model, each stage
 *  optionally wrapped in a TimedSink. */
template <typename Model, typename Config>
std::uint64_t
runPipeline(const isa::Program &prog, const Config &mc, bool wrapped)
{
    Model model(mc, true);
    TimedSink timedModel(model);
    core::LvpAnnotator annot(core::LvpConfig::simple(),
                             wrapped ? static_cast<trace::TraceSink &>(
                                           timedModel)
                                     : model);
    TimedSink timedAnnot(annot);
    vm::Interpreter interp(prog);
    std::uint64_t n = interp.run(wrapped ? static_cast<trace::TraceSink *>(
                                               &timedAnnot)
                                         : &annot);
    if (wrapped) {
        EXPECT_EQ(timedAnnot.records(), n);
        EXPECT_EQ(timedModel.records(), n);
        EXPECT_GE(timedAnnot.seconds(), timedModel.seconds());
    }
    return digest(n, annot.unit().stats(), model.stats());
}

TEST(TimedSink, WrappedPipelinesMatchUnwrapped)
{
    for (const char *name : {"grep", "compress", "tomcatv"}) {
        const auto &w = workloads::findWorkload(name);
        auto ppc = w.build(workloads::CodeGen::Ppc, 1);
        EXPECT_EQ((runPipeline<uarch::Ppc620Model>(
                      ppc, uarch::Ppc620Config::base620(), false)),
                  (runPipeline<uarch::Ppc620Model>(
                      ppc, uarch::Ppc620Config::base620(), true)))
            << name;
        auto alpha = w.build(workloads::CodeGen::Alpha, 1);
        EXPECT_EQ((runPipeline<uarch::Alpha21164Model>(
                      alpha, uarch::AlphaConfig::base21164(), false)),
                  (runPipeline<uarch::Alpha21164Model>(
                      alpha, uarch::AlphaConfig::base21164(), true)))
            << name;
    }
}

TEST(TimedSink, DigestSeesEveryStatsField)
{
    core::LvpStats a, b;
    uarch::OooStats s;
    b.cvuStaleHits = 1;
    EXPECT_NE(digest(1, a, s), digest(1, b, s));
    uarch::OooStats t;
    t.reissuedInsts = 1;
    EXPECT_NE(digest(1, a, s), digest(1, a, t));
    EXPECT_NE(digest(1, a), digest(2, a));
}

TEST(Layers, SelfTimeSubtractsChildren)
{
    struct Discard : trace::TraceSink
    {
        void consume(const trace::TraceRecord &) override {}
    } leaf;
    TimedSink child(leaf);
    TimedSink parent(child);
    std::vector<trace::TraceRecord> recs(1000);
    parent.consumeBatch(recs);
    parent.finish();
    EXPECT_EQ(parent.records(), 1000u);
    const TimedSink *children[] = {&child};
    EXPECT_GE(selfSeconds(parent.seconds(), children), 0.0);
    EXPECT_DOUBLE_EQ(selfSeconds(parent.seconds(), {}), parent.seconds());
}

TEST(Layers, SpanRollupChargesSelfTime)
{
    // Thread 1: a 10 s experiment span holding a 6 s ppc620 span that
    // itself holds a 2 s trace span; thread 2 runs a 3 s lvp span.
    std::vector<Span> spans = {
        {"fig6", "experiment", 0, 10, 1},
        {"ppc620:grep", "sim", 1, 6, 1},
        {"trace:grep", "trace", 2, 2, 1},
        {"lvp:gawk", "sim", 4, 3, 2},
    };
    auto self = selfTimeByKind(spans, "experiment");
    EXPECT_DOUBLE_EQ(self["ppc620"], 4);
    EXPECT_DOUBLE_EQ(self["trace"], 2);
    EXPECT_DOUBLE_EQ(self["lvp"], 3);
    EXPECT_EQ(self.count("fig6"), 0u);
    // Covered: [1, 7) on thread 1 and [4, 7) on thread 2.
    EXPECT_DOUBLE_EQ(uncoveredSeconds(spans, "experiment", 0, 10), 4);
    auto busy = busyByThread(spans, "experiment");
    EXPECT_DOUBLE_EQ(busy[1], 6);
    EXPECT_DOUBLE_EQ(busy[2], 3);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
    // One slow sample per unit, in different passes, drops out.
    EXPECT_DOUBLE_EQ(sumOfMedians({{"a", {1, 1, 9}}, {"b", {9, 2, 2}}}), 3);
    // Host drift across the run (pairs 1 and 3 slow) cancels per pair.
    EXPECT_NEAR(pairedOverhead({1, 2, 1}, {1.1, 2.2, 1.1}), 0.1, 1e-12);
}

obs::JsonValue
readRepoJson(const std::string &relPath)
{
    std::ifstream f(std::string(PERFBENCH_REPO_ROOT) + "/" + relPath);
    std::ostringstream os;
    os << f.rdbuf();
    std::string error;
    auto doc = obs::parseJson(os.str(), error);
    EXPECT_TRUE(doc) << relPath << ": " << error;
    return doc ? *doc : obs::JsonValue();
}

TEST(Metrics, BenchmarkJsonDeclaresExactlyWhatRunsReport)
{
    obs::JsonValue bench = readRepoJson("BENCHMARK.json");
    auto declared = [&](const char *kind) {
        std::vector<std::pair<std::string, std::string>> out;
        if (const obs::JsonValue *list = bench.find(kind))
            for (const auto &m : list->items())
                out.emplace_back(m.find("name")->asString(),
                                 m.find("unit")->asString());
        return out;
    };
    EXPECT_EQ(declared("end_to_end"), endToEndMetrics());
    EXPECT_EQ(declared("per_layer"), perLayerMetrics());
}

TEST(PaperRef, EveryKeyIsAGoldenMetric)
{
    obs::JsonValue doc = readRepoJson("bench/golden/metrics.json");
    const obs::JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(paperRefs().size(), 20u);
    for (const PaperRef &r : paperRefs()) {
        const obs::JsonValue *m = metrics->find(r.key);
        ASSERT_NE(m, nullptr) << r.key;
        const obs::JsonValue *v = m->find("value");
        ASSERT_NE(v, nullptr) << r.key;
        EXPECT_TRUE(v->isNumber()) << r.key;
        EXPECT_GT(r.paper, 0) << r.key;
    }
    auto gap = paperGapPct([&](const char *key) -> std::optional<double> {
        return metrics->find(key)->find("value")->asDouble();
    });
    ASSERT_TRUE(gap);
    EXPECT_GT(*gap, 0);
}

TEST(PaperRef, GapIsZeroAtThePaperValues)
{
    auto gap = paperGapPct([](const char *key) -> std::optional<double> {
        for (const PaperRef &r : paperRefs())
            if (std::string(r.key) == key)
                return r.paper;
        return std::nullopt;
    });
    ASSERT_TRUE(gap);
    EXPECT_DOUBLE_EQ(*gap, 0);
    EXPECT_FALSE(paperGapPct([](const char *) { return std::nullopt; }));
}

} // namespace
