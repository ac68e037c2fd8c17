#include "sim/experiment.hh"

#include <array>
#include <limits>
#include <vector>

#include "core/config.hh"
#include "isa/latency.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "uarch/machine_config.hh"
#include "util/env.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

using core::LvpConfig;
using isa::DataClass;
using isa::FuType;
using isa::MachineIsa;
using uarch::AlphaConfig;
using uarch::Ppc620Config;
using workloads::CodeGen;
using workloads::Workload;
using workloads::allWorkloads;

// Every runner has the same shape: fan per-workload (or per-workload
// x per-codegen) jobs out across the shared TaskPool, with all
// simulation going through the process-wide RunCache, then assemble
// the TextTable serially in suite order. Results depend only on the
// (pure) per-job values, so parallel output is byte-identical to
// serial and to the pre-engine loops.

namespace
{

std::string
pc1(double v)
{
    return TextTable::fmtPct(v, 1);
}

RunConfig
runCfg(const ExperimentOptions &opts)
{
    return {opts.maxInstructions};
}

RunCache &
cache()
{
    return RunCache::instance();
}

/**
 * Publish one reproduced headline number under the
 * "experiment.row.column" naming convention. Gauges are idempotent,
 * so runners may execute any number of times per process.
 */
void
pub(std::initializer_list<std::string_view> parts, double v)
{
    obs::metrics().gauge(obs::metricKey(parts)).set(v);
}

/** One (workload, codegen) fan-out unit. */
struct WorkUnit
{
    const Workload *w;
    CodeGen cg;
};

/** The suite crossed with both codegen styles, workload-major:
 *  unit 2*i is benchmark i under Ppc, 2*i+1 under Alpha. */
std::vector<WorkUnit>
workloadsByCodegen()
{
    std::vector<WorkUnit> units;
    units.reserve(allWorkloads().size() * 2);
    for (const auto &w : allWorkloads()) {
        units.push_back({&w, CodeGen::Ppc});
        units.push_back({&w, CodeGen::Alpha});
    }
    return units;
}

} // namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    if (auto v = envUnsigned("LVPLIB_SCALE", 1,
                             std::numeric_limits<unsigned>::max()))
        opts.scale = static_cast<unsigned>(*v);
    if (const char *p = std::getenv("LVPLIB_PREDICTORS"))
        opts.predictors = p;
    return opts;
}

TextTable
table1Benchmarks(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "Description", "Input", "Instr. (ppc)",
              "Loads (ppc)", "Instr. (alpha)", "Loads (alpha)"});
    auto results = experimentPool().map(
        workloadsByCodegen(), [&](const WorkUnit &u) {
            return cache().functional(*u.w, u.cg, opts.scale,
                                      runCfg(opts));
        });
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &w = suite[i];
        const auto &ppc = results[2 * i];
        const auto &alpha = results[2 * i + 1];
        t.row({w.name, w.description, w.input,
               TextTable::fmtCount(ppc.stats.instructions()),
               TextTable::fmtCount(ppc.stats.loads()),
               TextTable::fmtCount(alpha.stats.instructions()),
               TextTable::fmtCount(alpha.stats.loads())});
        pub({"table1", w.name, "ppc_instructions"},
            static_cast<double>(ppc.stats.instructions()));
        pub({"table1", w.name, "ppc_loads"},
            static_cast<double>(ppc.stats.loads()));
        pub({"table1", w.name, "alpha_instructions"},
            static_cast<double>(alpha.stats.instructions()));
        pub({"table1", w.name, "alpha_loads"},
            static_cast<double>(alpha.stats.loads()));
    }
    return t;
}

TextTable
fig1ValueLocality(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "Alpha d=1", "Alpha d=16", "PowerPC d=1",
              "PowerPC d=16"});
    auto profiles = experimentPool().map(
        workloadsByCodegen(), [&](const WorkUnit &u) {
            return cache().locality(*u.w, u.cg, opts.scale,
                                    runCfg(opts));
        });
    std::vector<double> a1, a16, p1, p16;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &ppc = profiles[2 * i];
        const auto &alpha = profiles[2 * i + 1];
        a1.push_back(alpha.total.pctDepth1());
        a16.push_back(alpha.total.pctDepthN());
        p1.push_back(ppc.total.pctDepth1());
        p16.push_back(ppc.total.pctDepthN());
        t.row({suite[i].name, pc1(a1.back()), pc1(a16.back()),
               pc1(p1.back()), pc1(p16.back())});
        pub({"fig1", suite[i].name, "alpha_d1"}, a1.back());
        pub({"fig1", suite[i].name, "alpha_d16"}, a16.back());
        pub({"fig1", suite[i].name, "ppc_d1"}, p1.back());
        pub({"fig1", suite[i].name, "ppc_d16"}, p16.back());
    }
    t.row({"MEAN", pc1(mean(a1)), pc1(mean(a16)), pc1(mean(p1)),
           pc1(mean(p16))});
    pub({"fig1", "mean", "alpha_d1"}, mean(a1));
    pub({"fig1", "mean", "alpha_d16"}, mean(a16));
    pub({"fig1", "mean", "ppc_d1"}, mean(p1));
    pub({"fig1", "mean", "ppc_d16"}, mean(p16));
    return t;
}

TextTable
fig2LocalityByType(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "FP d=1", "FP d=16", "Int d=1", "Int d=16",
              "InstAddr d=1", "InstAddr d=16", "DataAddr d=1",
              "DataAddr d=16"});
    auto cell = [&](const core::LocalityCounts &c, bool deep) {
        if (c.loads == 0)
            return std::string("-");
        return pc1(deep ? c.pctDepthN() : c.pctDepth1());
    };
    auto profiles = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return cache().locality(w, CodeGen::Ppc, opts.scale,
                                    runCfg(opts));
        });
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &prof = profiles[i];
        const auto &fp = prof.byClass(DataClass::FpData);
        const auto &in = prof.byClass(DataClass::IntData);
        const auto &ia = prof.byClass(DataClass::InstAddr);
        const auto &da = prof.byClass(DataClass::DataAddr);
        t.row({suite[i].name, cell(fp, false), cell(fp, true),
               cell(in, false), cell(in, true), cell(ia, false),
               cell(ia, true), cell(da, false), cell(da, true)});
        struct ClassCol
        {
            const char *key;
            const core::LocalityCounts *c;
        };
        for (const auto &[key, c] :
             {ClassCol{"fp", &fp}, ClassCol{"int", &in},
              ClassCol{"instaddr", &ia}, ClassCol{"dataaddr", &da}}) {
            if (c->loads == 0)
                continue; // rendered as "-": no number to publish
            pub({"fig2", suite[i].name, std::string(key) + "_d1"},
                c->pctDepth1());
            pub({"fig2", suite[i].name, std::string(key) + "_d16"},
                c->pctDepthN());
        }
    }
    return t;
}

TextTable
table2Configs()
{
    TextTable t;
    t.header({"Config", "LVPT entries", "History depth", "LCT entries",
              "LCT bits", "CVU entries", "Oracle"});
    for (const auto &c : LvpConfig::paperConfigs()) {
        t.row({c.name, std::to_string(c.lvptEntries),
               c.historyDepth > 1 ? std::to_string(c.historyDepth) +
                                        "/perfect-select"
                                  : std::to_string(c.historyDepth),
               std::to_string(c.lctEntries), std::to_string(c.lctBits),
               std::to_string(c.cvuEntries),
               c.perfectPrediction ? "yes" : "no"});
        pub({"table2", c.name, "lvpt_entries"},
            static_cast<double>(c.lvptEntries));
        pub({"table2", c.name, "history_depth"},
            static_cast<double>(c.historyDepth));
        pub({"table2", c.name, "lct_entries"},
            static_cast<double>(c.lctEntries));
        pub({"table2", c.name, "lct_bits"},
            static_cast<double>(c.lctBits));
        pub({"table2", c.name, "cvu_entries"},
            static_cast<double>(c.cvuEntries));
        pub({"table2", c.name, "oracle"},
            c.perfectPrediction ? 1.0 : 0.0);
    }
    return t;
}

TextTable
table3LctHitRates(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "PPC Simple unpred", "PPC Simple pred",
              "PPC Limit unpred", "PPC Limit pred",
              "Alpha Simple unpred", "Alpha Simple pred",
              "Alpha Limit unpred", "Alpha Limit pred"});
    auto stats = experimentPool().map(
        workloadsByCodegen(), [&](const WorkUnit &u) {
            return cache().predictorOnlyMany(
                *u.w, u.cg, opts.scale,
                {LvpConfig::simple(), LvpConfig::limit()},
                runCfg(opts));
        });
    static const char *const colNames[8] = {
        "ppc_simple_unpred", "ppc_simple_pred", "ppc_limit_unpred",
        "ppc_limit_pred",    "alpha_simple_unpred",
        "alpha_simple_pred", "alpha_limit_unpred", "alpha_limit_pred"};
    std::vector<std::vector<double>> cols(8);
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row{suite[i].name};
        unsigned c = 0;
        for (std::size_t unit : {2 * i, 2 * i + 1}) {
            for (const auto &st : stats[unit]) {
                row.push_back(pc1(st.unpredHitRate()));
                row.push_back(pc1(st.predHitRate()));
                pub({"table3", suite[i].name, colNames[c]},
                    st.unpredHitRate());
                cols[c++].push_back(st.unpredHitRate());
                pub({"table3", suite[i].name, colNames[c]},
                    st.predHitRate());
                cols[c++].push_back(st.predHitRate());
            }
        }
        t.row(std::move(row));
    }
    std::vector<std::string> gm{"GM"};
    for (std::size_t c = 0; c < cols.size(); ++c) {
        gm.push_back(pc1(geomean(cols[c])));
        pub({"table3", "gm", colNames[c]}, geomean(cols[c]));
    }
    t.row(std::move(gm));
    return t;
}

TextTable
table4ConstantRates(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "PPC Simple", "PPC Constant", "Alpha Simple",
              "Alpha Constant"});
    auto stats = experimentPool().map(
        workloadsByCodegen(), [&](const WorkUnit &u) {
            return cache().predictorOnlyMany(
                *u.w, u.cg, opts.scale,
                {LvpConfig::simple(), LvpConfig::constant()},
                runCfg(opts));
        });
    static const char *const colNames[4] = {
        "ppc_simple", "ppc_constant", "alpha_simple", "alpha_constant"};
    std::vector<std::vector<double>> cols(4);
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row{suite[i].name};
        unsigned c = 0;
        for (std::size_t unit : {2 * i, 2 * i + 1}) {
            for (const auto &st : stats[unit]) {
                row.push_back(pc1(st.constantRate()));
                pub({"table4", suite[i].name, colNames[c]},
                    st.constantRate());
                cols[c++].push_back(st.constantRate());
            }
        }
        t.row(std::move(row));
    }
    std::vector<std::string> m{"MEAN"};
    for (std::size_t c = 0; c < cols.size(); ++c) {
        m.push_back(pc1(mean(cols[c])));
        pub({"table4", "mean", colNames[c]}, mean(cols[c]));
    }
    t.row(std::move(m));
    return t;
}

TextTable
table5Latencies()
{
    TextTable t;
    t.header({"Instruction class", "620 issue", "620 result",
              "21164 issue", "21164 result"});
    struct Row
    {
        const char *name;
        isa::Opcode op;
    };
    static const Row rows[] = {
        {"Simple integer", isa::Opcode::ADD},
        {"Complex integer (mul)", isa::Opcode::MULL},
        {"Complex integer (div)", isa::Opcode::DIVD},
        {"Load/store", isa::Opcode::LD},
        {"Simple FP", isa::Opcode::FADD},
        {"Complex FP (div)", isa::Opcode::FDIV},
        {"Complex FP (sqrt)", isa::Opcode::FSQRT},
    };
    for (const auto &r : rows) {
        auto p = isa::opLatency(MachineIsa::Ppc620, r.op);
        auto al = isa::opLatency(MachineIsa::Alpha21164, r.op);
        t.row({r.name, std::to_string(p.issue), std::to_string(p.result),
               std::to_string(al.issue), std::to_string(al.result)});
        pub({"table5", r.name, "620_issue"},
            static_cast<double>(p.issue));
        pub({"table5", r.name, "620_result"},
            static_cast<double>(p.result));
        pub({"table5", r.name, "21164_issue"},
            static_cast<double>(al.issue));
        pub({"table5", r.name, "21164_result"},
            static_cast<double>(al.result));
    }
    t.row({"Branch mispredict penalty", "-",
           std::to_string(isa::mispredictPenalty(MachineIsa::Ppc620)) +
               "+refetch",
           "-",
           std::to_string(
               isa::mispredictPenalty(MachineIsa::Alpha21164))});
    pub({"table5", "mispredict_penalty", "620_result"},
        static_cast<double>(isa::mispredictPenalty(MachineIsa::Ppc620)));
    pub({"table5", "mispredict_penalty", "21164_result"},
        static_cast<double>(
            isa::mispredictPenalty(MachineIsa::Alpha21164)));
    return t;
}

namespace
{

/** Per-benchmark base IPC plus speedup per LVP configuration. */
struct SpeedupRow
{
    double baseIpc = 0;
    std::uint64_t instructions = 0;
    double plusRatio = 0; ///< table 6 only: 620+ over 620, no LVP
    std::vector<double> speedups;
};

} // namespace

TextTable
fig6AlphaSpeedups(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "Base IPC", "Simple", "Limit", "Perfect"});
    const std::vector<LvpConfig> cfgs = {
        LvpConfig::simple(), LvpConfig::limit(), LvpConfig::perfect()};
    std::vector<RunCache::AlphaVariant> variants;
    variants.push_back({AlphaConfig::base21164(), std::nullopt});
    for (const auto &cfg : cfgs)
        variants.push_back({AlphaConfig::base21164(), cfg});
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().alpha21164Many(w, CodeGen::Alpha,
                                               opts.scale, variants,
                                               runCfg(opts));
            SpeedupRow r;
            r.baseIpc = runs[0].timing.ipc();
            for (std::size_t c = 0; c < cfgs.size(); ++c)
                r.speedups.push_back(runs[c + 1].timing.ipc() /
                                     runs[0].timing.ipc());
            return r;
        });
    std::vector<std::vector<double>> speedups(cfgs.size());
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row{
            suite[i].name, TextTable::fmtDouble(rows[i].baseIpc, 3)};
        pub({"fig6alpha", suite[i].name, "base_ipc"}, rows[i].baseIpc);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            speedups[c].push_back(rows[i].speedups[c]);
            row.push_back(TextTable::fmtDouble(rows[i].speedups[c], 3));
            pub({"fig6alpha", suite[i].name, cfgs[c].name},
                rows[i].speedups[c]);
        }
        t.row(std::move(row));
    }
    std::vector<std::string> gm{"GM", "-"};
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        gm.push_back(TextTable::fmtDouble(geomean(speedups[c]), 3));
        pub({"fig6alpha", "gm", cfgs[c].name}, geomean(speedups[c]));
    }
    t.row(std::move(gm));
    return t;
}

TextTable
fig6PpcSpeedups(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "Base IPC", "Simple", "Constant", "Limit",
              "Perfect"});
    const std::vector<LvpConfig> cfgs = {
        LvpConfig::simple(), LvpConfig::constant(), LvpConfig::limit(),
        LvpConfig::perfect()};
    std::vector<RunCache::PpcVariant> variants;
    variants.push_back({Ppc620Config::base620(), std::nullopt});
    for (const auto &cfg : cfgs)
        variants.push_back({Ppc620Config::base620(), cfg});
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().ppc620Many(w, CodeGen::Ppc, opts.scale,
                                           variants, runCfg(opts));
            SpeedupRow r;
            r.baseIpc = runs[0].timing.ipc();
            for (std::size_t c = 0; c < cfgs.size(); ++c)
                r.speedups.push_back(runs[c + 1].timing.ipc() /
                                     runs[0].timing.ipc());
            return r;
        });
    std::vector<std::vector<double>> speedups(cfgs.size());
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row{
            suite[i].name, TextTable::fmtDouble(rows[i].baseIpc, 3)};
        pub({"fig6ppc", suite[i].name, "base_ipc"}, rows[i].baseIpc);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            speedups[c].push_back(rows[i].speedups[c]);
            row.push_back(TextTable::fmtDouble(rows[i].speedups[c], 3));
            pub({"fig6ppc", suite[i].name, cfgs[c].name},
                rows[i].speedups[c]);
        }
        t.row(std::move(row));
    }
    std::vector<std::string> gm{"GM", "-"};
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        gm.push_back(TextTable::fmtDouble(geomean(speedups[c]), 3));
        pub({"fig6ppc", "gm", cfgs[c].name}, geomean(speedups[c]));
    }
    t.row(std::move(gm));
    return t;
}

TextTable
table6Plus620Speedups(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "Instr.", "620+ vs 620", "Simple", "Constant",
              "Limit", "Perfect"});
    const std::vector<LvpConfig> cfgs = {
        LvpConfig::simple(), LvpConfig::constant(), LvpConfig::limit(),
        LvpConfig::perfect()};
    std::vector<RunCache::PpcVariant> variants;
    variants.push_back({Ppc620Config::base620(), std::nullopt});
    variants.push_back({Ppc620Config::plus620(), std::nullopt});
    for (const auto &cfg : cfgs)
        variants.push_back({Ppc620Config::plus620(), cfg});
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().ppc620Many(w, CodeGen::Ppc, opts.scale,
                                           variants, runCfg(opts));
            const auto &base620 = runs[0];
            const auto &base_plus = runs[1];
            SpeedupRow r;
            r.instructions = base620.timing.instructions;
            r.plusRatio =
                base_plus.timing.ipc() / base620.timing.ipc();
            // Paper Table 6: additional speedup relative to the
            // baseline 620+ with no LVP.
            for (std::size_t c = 0; c < cfgs.size(); ++c)
                r.speedups.push_back(runs[c + 2].timing.ipc() /
                                     base_plus.timing.ipc());
            return r;
        });
    std::vector<double> plus_col;
    std::vector<std::vector<double>> speedups(cfgs.size());
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        plus_col.push_back(rows[i].plusRatio);
        std::vector<std::string> row{
            suite[i].name, TextTable::fmtCount(rows[i].instructions),
            TextTable::fmtDouble(rows[i].plusRatio, 3)};
        pub({"table6", suite[i].name, "instructions"},
            static_cast<double>(rows[i].instructions));
        pub({"table6", suite[i].name, "plus_ratio"}, rows[i].plusRatio);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            speedups[c].push_back(rows[i].speedups[c]);
            row.push_back(TextTable::fmtDouble(rows[i].speedups[c], 3));
            pub({"table6", suite[i].name, cfgs[c].name},
                rows[i].speedups[c]);
        }
        t.row(std::move(row));
    }
    std::vector<std::string> gm{"GM", "-",
                                TextTable::fmtDouble(geomean(plus_col), 3)};
    pub({"table6", "gm", "plus_ratio"}, geomean(plus_col));
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        gm.push_back(TextTable::fmtDouble(geomean(speedups[c]), 3));
        pub({"table6", "gm", cfgs[c].name}, geomean(speedups[c]));
    }
    t.row(std::move(gm));
    return t;
}

namespace
{

/** Sum verification-latency histograms over all benchmarks for every
 *  figure-7 machine/LVP configuration, fetching each workload's whole
 *  variant sweep from one single-pass replay. */
std::vector<Histogram>
verifyHistograms(const std::vector<RunCache::PpcVariant> &variants,
                 const ExperimentOptions &opts)
{
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().ppc620Many(w, CodeGen::Ppc, opts.scale,
                                           variants, runCfg(opts));
            std::vector<Histogram> hs;
            hs.reserve(runs.size());
            for (const auto &r : runs)
                hs.push_back(r.timing.verifyLatency);
            return hs;
        });
    // Merge each variant in suite order, exactly as the previous
    // per-configuration loops did.
    std::vector<Histogram> out(variants.size(), Histogram(8));
    for (const auto &wh : rows)
        for (std::size_t v = 0; v < variants.size(); ++v)
            out[v].merge(wh[v]);
    return out;
}

} // namespace

TextTable
fig7VerificationLatency(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Machine/Config", "<4", "4", "5", "6", "7", ">7"});
    std::vector<RunCache::PpcVariant> variants;
    for (const auto &mc :
         {Ppc620Config::base620(), Ppc620Config::plus620()})
        for (const auto &cfg : LvpConfig::paperConfigs())
            variants.push_back({mc, cfg});
    auto hists = verifyHistograms(variants, opts);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const auto &mc = variants[v].mc;
        const auto &cfg = *variants[v].lvp;
        const Histogram &h = hists[v];
        double lt4 = h.bucketPct(0) + h.bucketPct(1) + h.bucketPct(2) +
                     h.bucketPct(3);
        t.row({mc.name + "/" + cfg.name, pc1(lt4), pc1(h.bucketPct(4)),
               pc1(h.bucketPct(5)), pc1(h.bucketPct(6)),
               pc1(h.bucketPct(7)), pc1(h.overflowPct())});
        const std::string rowKey = mc.name + "_" + cfg.name;
        pub({"fig7", rowKey, "lt4"}, lt4);
        pub({"fig7", rowKey, "c4"}, h.bucketPct(4));
        pub({"fig7", rowKey, "c5"}, h.bucketPct(5));
        pub({"fig7", rowKey, "c6"}, h.bucketPct(6));
        pub({"fig7", rowKey, "c7"}, h.bucketPct(7));
        pub({"fig7", rowKey, "gt7"}, h.overflowPct());
    }
    return t;
}

namespace
{

/** Per-benchmark mean RS operand waits: baseline and per config. */
struct WaitRow
{
    std::array<double, isa::NumFuTypes> base{};
    std::array<std::array<double, isa::NumFuTypes>, 4> cfg{};
};

} // namespace

TextTable
fig8DependencyResolution(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Machine/Config", "BRU", "MCFX", "SCFX", "FPU", "LSU"});
    static const FuType fus[] = {FuType::BRU, FuType::MCFX, FuType::SCFX,
                                 FuType::FPU, FuType::LSU};
    for (const auto &mc :
         {Ppc620Config::base620(), Ppc620Config::plus620()}) {
        auto cfgs = LvpConfig::paperConfigs();
        std::vector<RunCache::PpcVariant> variants;
        variants.push_back({mc, std::nullopt});
        for (const auto &cfg : cfgs)
            variants.push_back({mc, cfg});
        auto rows = experimentPool().map(
            allWorkloads(), [&](const Workload &w) {
                auto runs = cache().ppc620Many(w, CodeGen::Ppc,
                                               opts.scale, variants,
                                               runCfg(opts));
                WaitRow r;
                for (FuType f : fus)
                    r.base[static_cast<std::size_t>(f)] =
                        runs[0].timing.rsWaitMean(f);
                for (std::size_t c = 0; c < cfgs.size(); ++c)
                    for (FuType f : fus)
                        r.cfg[c][static_cast<std::size_t>(f)] =
                            runs[c + 1].timing.rsWaitMean(f);
                return r;
            });
        // Accumulate in suite order so floating-point sums match the
        // original serial loops exactly.
        std::array<double, isa::NumFuTypes> base_wait{};
        std::array<std::array<double, isa::NumFuTypes>, 4> cfg_wait{};
        for (const auto &r : rows) {
            for (FuType f : fus) {
                auto fi = static_cast<std::size_t>(f);
                base_wait[fi] += r.base[fi];
            }
            for (std::size_t c = 0; c < cfgs.size(); ++c)
                for (FuType f : fus) {
                    auto fi = static_cast<std::size_t>(f);
                    cfg_wait[c][fi] += r.cfg[c][fi];
                }
        }
        static const char *const fuKeys[] = {"bru", "mcfx", "scfx",
                                             "fpu", "lsu"};
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            std::vector<std::string> row{mc.name + "/" + cfgs[c].name};
            const std::string rowKey = mc.name + "_" + cfgs[c].name;
            for (std::size_t k = 0; k < std::size(fus); ++k) {
                auto fi = static_cast<std::size_t>(fus[k]);
                double norm = base_wait[fi] > 0
                                  ? 100.0 * cfg_wait[c][fi] /
                                        base_wait[fi]
                                  : 100.0;
                row.push_back(pc1(norm));
                pub({"fig8", rowKey, fuKeys[k]}, norm);
            }
            t.row(std::move(row));
        }
    }
    return t;
}

TextTable
fig9BankConflicts(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "620 NoLVP", "620 Simple", "620 Constant",
              "620+ NoLVP", "620+ Simple", "620+ Constant"});
    std::vector<RunCache::PpcVariant> variants;
    for (const auto &mc :
         {Ppc620Config::base620(), Ppc620Config::plus620()}) {
        variants.push_back({mc, std::nullopt});
        for (const auto &cfg :
             {LvpConfig::simple(), LvpConfig::constant()})
            variants.push_back({mc, cfg});
    }
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().ppc620Many(w, CodeGen::Ppc, opts.scale,
                                           variants, runCfg(opts));
            std::array<double, 6> pcts{};
            for (unsigned c = 0; c < 6; ++c)
                pcts[c] = runs[c].timing.bankConflictPct();
            return pcts;
        });
    static const char *const colNames[6] = {
        "620_nolvp",     "620_simple",     "620_constant",
        "620plus_nolvp", "620plus_simple", "620plus_constant"};
    std::vector<std::vector<double>> cols(6);
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row{suite[i].name};
        for (unsigned c = 0; c < 6; ++c) {
            row.push_back(pc1(rows[i][c]));
            pub({"fig9", suite[i].name, colNames[c]}, rows[i][c]);
            cols[c].push_back(rows[i][c]);
        }
        t.row(std::move(row));
    }
    std::vector<std::string> m{"MEAN"};
    for (unsigned c = 0; c < 6; ++c) {
        m.push_back(pc1(mean(cols[c])));
        pub({"fig9", "mean", colNames[c]}, mean(cols[c]));
    }
    t.row(std::move(m));
    return t;
}

} // namespace lvplib::sim
