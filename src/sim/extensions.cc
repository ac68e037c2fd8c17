#include "sim/extensions.hh"

#include <array>
#include <vector>

#include "core/config.hh"
#include "core/value_profiler.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "uarch/machine_config.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

using core::LvpConfig;
using uarch::Ppc620Config;
using workloads::CodeGen;
using workloads::Workload;
using workloads::allWorkloads;

namespace
{

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

/** Publish one headline number, mirroring experiment.cc's helper. */
void
pub(std::initializer_list<std::string_view> parts, double v)
{
    obs::metrics().gauge(obs::metricKey(parts)).set(v);
}

/**
 * Suite statistics for a whole config sweep at once: element c of the
 * result is the per-workload mean of stat(workload, cfgs[c]). Each
 * workload's sweep comes from one single-pass fan-out replay, and the
 * per-config means accumulate in suite order, exactly as the old
 * one-config-at-a-time helpers did.
 */
template <typename StatFn>
std::vector<double>
meanOverSuite(const std::vector<core::LvpConfig> &cfgs,
              const ExperimentOptions &opts, StatFn stat)
{
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto sts = cache().predictorOnlyMany(
                w, CodeGen::Ppc, opts.scale,
                {cfgs.begin(), cfgs.end()}, runCfg(opts));
            std::vector<double> xs;
            xs.reserve(sts.size());
            for (const auto &st : sts)
                xs.push_back(stat(st));
            return xs;
        });
    std::vector<double> out;
    out.reserve(cfgs.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        std::vector<double> col;
        col.reserve(rows.size());
        for (const auto &r : rows)
            col.push_back(r[c]);
        out.push_back(mean(col));
    }
    return out;
}

/** Mean "good prediction" rate over the suite, per config. */
std::vector<double>
meanGoodMany(const std::vector<core::LvpConfig> &cfgs,
             const ExperimentOptions &opts)
{
    return meanOverSuite(cfgs, opts, [](const core::LvpStats &st) {
        return pct(st.correct + st.constants, st.loads);
    });
}

/** Mean constant-identification rate over the suite, per config. */
std::vector<double>
meanConstantMany(const std::vector<core::LvpConfig> &cfgs,
                 const ExperimentOptions &opts)
{
    return meanOverSuite(cfgs, opts, [](const core::LvpStats &st) {
        return st.constantRate();
    });
}

} // namespace

std::vector<ExperimentSection>
ablationPredictors(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "LVP cover", "LVP accur", "LVP good",
              "Stride cover", "Stride accur", "Stride good",
              "FCM cover", "FCM accur", "FCM good"});
    struct PredRow
    {
        core::LvpStats lvp, stride, fcm;
    };
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto sts = cache().predictorOnlyMany(
                w, CodeGen::Ppc, opts.scale,
                {LvpConfig::simple(), core::StrideConfig::simple(),
                 core::FcmConfig::simple()},
                runCfg(opts));
            return PredRow{sts[0], sts[1], sts[2]};
        });
    auto good = [](const core::LvpStats &s) {
        return pct(s.correct + s.constants, s.loads);
    };
    std::vector<double> lvp_good, stride_good, fcm_good;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        lvp_good.push_back(good(r.lvp));
        stride_good.push_back(good(r.stride));
        fcm_good.push_back(good(r.fcm));
        t.row({suite[i].name, TextTable::fmtPct(r.lvp.predictionRate()),
               TextTable::fmtPct(r.lvp.accuracy()),
               TextTable::fmtPct(good(r.lvp)),
               TextTable::fmtPct(r.stride.predictionRate()),
               TextTable::fmtPct(r.stride.accuracy()),
               TextTable::fmtPct(good(r.stride)),
               TextTable::fmtPct(r.fcm.predictionRate()),
               TextTable::fmtPct(r.fcm.accuracy()),
               TextTable::fmtPct(good(r.fcm))});
        struct PredCol
        {
            const char *key;
            const core::LvpStats *s;
        };
        for (const auto &[key, s] :
             {PredCol{"lvp", &r.lvp}, PredCol{"stride", &r.stride},
              PredCol{"fcm", &r.fcm}}) {
            pub({"ablation_predictors", suite[i].name,
                 std::string(key) + "_cover"},
                s->predictionRate());
            pub({"ablation_predictors", suite[i].name,
                 std::string(key) + "_accur"},
                s->accuracy());
            pub({"ablation_predictors", suite[i].name,
                 std::string(key) + "_good"},
                good(*s));
        }
    }
    t.row({"MEAN", "-", "-", TextTable::fmtPct(mean(lvp_good)), "-",
           "-", TextTable::fmtPct(mean(stride_good)), "-", "-",
           TextTable::fmtPct(mean(fcm_good))});
    pub({"ablation_predictors", "mean", "lvp_good"}, mean(lvp_good));
    pub({"ablation_predictors", "mean", "stride_good"},
        mean(stride_good));
    pub({"ablation_predictors", "mean", "fcm_good"}, mean(fcm_good));

    return {{"Ablation: last-value LVP vs stride vs two-level FCM",
             "the paper's future-work directions, realized: stride "
             "detection matches last-value prediction on constants and "
             "wins on strided streams; the two-level finite-context "
             "method (where the field ended up) dominates both on "
             "patterned values, at the cost of losing the CVU's "
             "bandwidth savings.",
             std::move(t)}};
}

std::vector<ExperimentSection>
ablationLvpDesign(const ExperimentOptions &opts)
{
    std::vector<ExperimentSection> sections;

    {
        TextTable t;
        t.header({"LVPT entries", "good predictions"});
        static const std::uint32_t entriesSweep[] = {64u, 256u, 1024u,
                                                     4096u};
        std::vector<LvpConfig> cfgs;
        for (std::uint32_t entries : entriesSweep) {
            auto cfg = LvpConfig::simple();
            cfg.lvptEntries = entries;
            cfgs.push_back(cfg);
        }
        auto goods = meanGoodMany(cfgs, opts);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            double g = goods[i];
            t.row({std::to_string(entriesSweep[i]),
                   TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 "lvpt_" + std::to_string(entriesSweep[i]), "good"},
                g);
        }
        sections.push_back(
            {"Ablation 1: LVPT capacity sweep",
             "small tables alias destructively; gains flatten once the "
             "hot static loads fit (the paper picked 1024).",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"History depth (oracle select)", "good predictions"});
        static const std::uint32_t depthSweep[] = {1u, 2u, 4u, 8u, 16u};
        std::vector<LvpConfig> cfgs;
        for (std::uint32_t depth : depthSweep) {
            auto cfg = LvpConfig::limit();
            cfg.historyDepth = depth;
            cfgs.push_back(cfg);
        }
        auto goods = meanGoodMany(cfgs, opts);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            double g = goods[i];
            t.row({std::to_string(depthSweep[i]), TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 "history_" + std::to_string(depthSweep[i]), "good"},
                g);
        }
        sections.push_back(
            {"Ablation 2: history-depth sweep",
             "deeper histories with perfect selection capture "
             "alternating values; most of the benefit arrives by depth "
             "4-8 (the paper's Figure 1 contrasts depths 1 and 16).",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"CVU entries", "constants (% of loads)"});
        static const std::uint32_t cvuSweep[] = {8u, 32u, 128u, 512u};
        std::vector<LvpConfig> cfgs;
        for (std::uint32_t entries : cvuSweep) {
            auto cfg = LvpConfig::constant();
            cfg.cvuEntries = entries;
            cfgs.push_back(cfg);
        }
        // Organization: the paper's full CAM vs a cheaper 4-way
        // set-associative CVU at the Constant config's capacity.
        {
            auto cfg = LvpConfig::constant();
            cfg.cvuWays = 4;
            cfgs.push_back(cfg);
        }
        auto consts = meanConstantMany(cfgs, opts);
        for (std::size_t i = 0; i < std::size(cvuSweep); ++i) {
            double c = consts[i];
            t.row({std::to_string(cvuSweep[i]), TextTable::fmtPct(c)});
            pub({"ablation_lvp_design",
                 "cvu_" + std::to_string(cvuSweep[i]), "constants"},
                c);
        }
        t.row({"128 (4-way set-assoc)",
               TextTable::fmtPct(consts.back())});
        pub({"ablation_lvp_design", "cvu_128_4way", "constants"},
            consts.back());
        sections.push_back(
            {"Ablation 3: CVU capacity and organization",
             "more CAM entries keep more constants verified between "
             "stores; returns diminish as the hot constant set fits.",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"BHR bits in LVPT index", "good predictions"});
        static const std::uint32_t bhrSweep[] = {0u, 2u, 4u, 8u};
        std::vector<LvpConfig> cfgs;
        for (std::uint32_t bits : bhrSweep) {
            auto cfg = LvpConfig::simple();
            cfg.bhrBits = bits;
            cfgs.push_back(cfg);
        }
        auto goods = meanGoodMany(cfgs, opts);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            double g = goods[i];
            t.row({std::to_string(bhrSweep[i]), TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 "bhr_" + std::to_string(bhrSweep[i]), "good"},
                g);
        }
        sections.push_back(
            {"Ablation 4: branch-history-indexed LVPT (paper §7)",
             "hashing global branch history into the lookup index "
             "gives context-dependent loads separate entries (helping "
             "alternating-value loads) at the cost of spreading "
             "context-independent loads across more entries.",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"Recovery policy", "GM speedup (620, Simple)"});
        for (bool squash : {false, true}) {
            auto mc = Ppc620Config::base620();
            mc.squashOnValueMispredict = squash;
            const std::vector<RunCache::PpcVariant> variants = {
                {mc, std::nullopt}, {mc, LvpConfig::simple()}};
            auto speedups = experimentPool().map(
                allWorkloads(), [&](const Workload &w) {
                    auto runs = cache().ppc620Many(w, CodeGen::Ppc,
                                                   opts.scale, variants,
                                                   runCfg(opts));
                    return runs[1].timing.ipc() / runs[0].timing.ipc();
                });
            t.row({squash ? "squash + refetch" : "selective reissue "
                                                 "(paper)",
                   TextTable::fmtDouble(geomean(speedups), 3)});
            pub({"ablation_lvp_design",
                 squash ? "recovery_squash" : "recovery_reissue",
                 "gm_speedup"},
                geomean(speedups));
        }
        sections.push_back(
            {"Ablation 5: value-misprediction recovery policy",
             "the paper's selective reissue keeps the worst-case "
             "penalty at one cycle plus structural hazards; squashing "
             "like a branch mispredict erodes (or inverts) the Simple "
             "configuration's gains, which is why the LCT + selective "
             "recovery combination matters.",
             std::move(t)});
    }

    {
        TextTable t;
        t.header({"LVPT tagging", "good predictions"});
        std::vector<LvpConfig> cfgs;
        for (bool tagged : {false, true}) {
            auto cfg = LvpConfig::simple();
            cfg.taggedLvpt = tagged;
            cfgs.push_back(cfg);
        }
        auto goods = meanGoodMany(cfgs, opts);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            bool tagged = i == 1;
            double g = goods[i];
            t.row({tagged ? "tagged" : "untagged (paper)",
                   TextTable::fmtPct(g)});
            pub({"ablation_lvp_design",
                 tagged ? "lvpt_tagged" : "lvpt_untagged", "good"},
                g);
        }
        sections.push_back(
            {"Ablation 6: tagged vs untagged LVPT",
             "tags remove destructive interference but also the "
             "constructive kind, and cost area; at 1024 entries the "
             "difference is small, which is why the paper left the "
             "table untagged.",
             std::move(t)});
    }

    return sections;
}

std::vector<ExperimentSection>
ablationAllValues(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "ALL d=1", "ALL d=16", "SCFX d=1",
              "SCFX d=16", "MCFX d=1", "FPU d=1", "LSU d=1",
              "LSU d=16"});
    auto cell = [](const core::LocalityCounts &c, bool deep) {
        if (c.loads == 0)
            return std::string("-");
        return TextTable::fmtPct(deep ? c.pctDepthN() : c.pctDepth1());
    };
    // All-value profiling is this experiment's private phase (the
    // trace cache only records load values), so it interprets.
    auto profs = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return profileAllValues(
                *cache().program(w, CodeGen::Ppc, opts.scale),
                runCfg(opts));
        });
    std::vector<double> all1, all16;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &prof = profs[i];
        all1.push_back(prof.total().pctDepth1());
        all16.push_back(prof.total().pctDepthN());
        t.row({suite[i].name, cell(prof.total(), false),
               cell(prof.total(), true),
               cell(prof.byFu(isa::FuType::SCFX), false),
               cell(prof.byFu(isa::FuType::SCFX), true),
               cell(prof.byFu(isa::FuType::MCFX), false),
               cell(prof.byFu(isa::FuType::FPU), false),
               cell(prof.byFu(isa::FuType::LSU), false),
               cell(prof.byFu(isa::FuType::LSU), true)});
        pub({"ablation_all_values", suite[i].name, "all_d1"},
            all1.back());
        pub({"ablation_all_values", suite[i].name, "all_d16"},
            all16.back());
        struct FuCol
        {
            const char *key;
            isa::FuType fu;
            bool deep;
        };
        for (const auto &[key, fu, deep] :
             {FuCol{"scfx_d1", isa::FuType::SCFX, false},
              FuCol{"scfx_d16", isa::FuType::SCFX, true},
              FuCol{"mcfx_d1", isa::FuType::MCFX, false},
              FuCol{"fpu_d1", isa::FuType::FPU, false},
              FuCol{"lsu_d1", isa::FuType::LSU, false},
              FuCol{"lsu_d16", isa::FuType::LSU, true}}) {
            const auto &c = prof.byFu(fu);
            if (c.loads == 0)
                continue; // rendered as "-": no number to publish
            pub({"ablation_all_values", suite[i].name, key},
                deep ? c.pctDepthN() : c.pctDepth1());
        }
    }
    t.row({"MEAN", TextTable::fmtPct(mean(all1)),
           TextTable::fmtPct(mean(all16)), "-", "-", "-", "-", "-",
           "-"});
    pub({"ablation_all_values", "mean", "all_d1"}, mean(all1));
    pub({"ablation_all_values", "mean", "all_d16"}, mean(all16));

    return {{"Extension: value locality of ALL value-producing "
             "instructions",
             "the follow-up literature (e.g. Lipasti & Shen, MICRO-29) "
             "found that non-load instructions also exhibit substantial "
             "value locality; loads are not special, just the most "
             "latency-critical.",
             std::move(t)}};
}

std::vector<ExperimentSection>
ablationBpred(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "bimodal mispred", "gshare mispred",
              "bimodal IPC", "gshare IPC", "gshare+LVP IPC"});
    auto bimodal_cfg = Ppc620Config::base620();
    auto gshare_cfg = Ppc620Config::base620();
    gshare_cfg.bpred.gshareBits = 8;
    struct BpredRow
    {
        PpcRun bimodal, gshare, gshare_lvp;
    };
    const std::vector<RunCache::PpcVariant> variants = {
        {bimodal_cfg, std::nullopt},
        {gshare_cfg, std::nullopt},
        {gshare_cfg, LvpConfig::simple()}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().ppc620Many(w, CodeGen::Ppc, opts.scale,
                                           variants, runCfg(opts));
            return BpredRow{runs[0], runs[1], runs[2]};
        });
    auto mr = [](const PpcRun &r) {
        return pct(r.timing.branchMispredicts, r.timing.instructions);
    };
    std::vector<double> bi, gs, gl;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        bi.push_back(r.bimodal.timing.ipc());
        gs.push_back(r.gshare.timing.ipc());
        gl.push_back(r.gshare_lvp.timing.ipc());
        t.row({suite[i].name, TextTable::fmtPct(mr(r.bimodal), 2),
               TextTable::fmtPct(mr(r.gshare), 2),
               TextTable::fmtDouble(r.bimodal.timing.ipc(), 3),
               TextTable::fmtDouble(r.gshare.timing.ipc(), 3),
               TextTable::fmtDouble(r.gshare_lvp.timing.ipc(), 3)});
        pub({"ablation_bpred", suite[i].name, "bimodal_mispred"},
            mr(r.bimodal));
        pub({"ablation_bpred", suite[i].name, "gshare_mispred"},
            mr(r.gshare));
        pub({"ablation_bpred", suite[i].name, "bimodal_ipc"},
            r.bimodal.timing.ipc());
        pub({"ablation_bpred", suite[i].name, "gshare_ipc"},
            r.gshare.timing.ipc());
        pub({"ablation_bpred", suite[i].name, "gshare_lvp_ipc"},
            r.gshare_lvp.timing.ipc());
    }
    t.row({"MEAN", "-", "-", TextTable::fmtDouble(mean(bi), 3),
           TextTable::fmtDouble(mean(gs), 3),
           TextTable::fmtDouble(mean(gl), 3)});
    pub({"ablation_bpred", "mean", "bimodal_ipc"}, mean(bi));
    pub({"ablation_bpred", "mean", "gshare_ipc"}, mean(gs));
    pub({"ablation_bpred", "mean", "gshare_lvp_ipc"}, mean(gl));

    return {{"Ablation: bimodal vs gshare front end (with and without "
             "LVP)",
             "value prediction and better branch prediction compose: "
             "LVP collapses the load half of load-compare-branch "
             "chains, so its gains persist under a stronger front end.",
             std::move(t)}};
}

std::vector<ExperimentSection>
sec61MissRates(const ExperimentOptions &opts)
{
    TextTable t;
    t.header({"Benchmark", "base miss/instr", "Constant miss/instr",
              "miss reduction", "L1 access reduction",
              "const loads"});
    struct MissRow
    {
        AlphaRun base, with;
    };
    const std::vector<RunCache::AlphaVariant> variants = {
        {uarch::AlphaConfig::base21164(), std::nullopt},
        {uarch::AlphaConfig::base21164(), LvpConfig::constant()}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            auto runs = cache().alpha21164Many(w, CodeGen::Alpha,
                                               opts.scale, variants,
                                               runCfg(opts));
            return MissRow{runs[0], runs[1]};
        });
    std::vector<double> miss_red, acc_red;
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        double mr_base = r.base.timing.missRatePerInst();
        double mr_with = r.with.timing.missRatePerInst();
        double mred = mr_base > 0
                          ? 100.0 * (mr_base - mr_with) / mr_base
                          : 0.0;
        double ared =
            100.0 *
            (static_cast<double>(r.base.timing.l1Accesses) -
             static_cast<double>(r.with.timing.l1Accesses)) /
            static_cast<double>(r.base.timing.l1Accesses);
        miss_red.push_back(mred);
        acc_red.push_back(ared);
        t.row({suite[i].name, TextTable::fmtPct(mr_base, 2),
               TextTable::fmtPct(mr_with, 2),
               TextTable::fmtPct(mred), TextTable::fmtPct(ared),
               std::to_string(r.with.timing.constLoads)});
        pub({"sec61", suite[i].name, "base_miss_per_instr"}, mr_base);
        pub({"sec61", suite[i].name, "constant_miss_per_instr"},
            mr_with);
        pub({"sec61", suite[i].name, "miss_reduction"}, mred);
        pub({"sec61", suite[i].name, "access_reduction"}, ared);
        pub({"sec61", suite[i].name, "const_loads"},
            static_cast<double>(r.with.timing.constLoads));
    }
    t.row({"MEAN", "-", "-", TextTable::fmtPct(mean(miss_red)),
           TextTable::fmtPct(mean(acc_red)), "-"});
    pub({"sec61", "mean", "miss_reduction"}, mean(miss_red));
    pub({"sec61", "mean", "access_reduction"}, mean(acc_red));

    return {{"Section 6.1: 21164 cache-bandwidth reduction from the CVU",
             "constant loads never touch the cache: the paper reports a "
             "20% miss-rate-per-instruction reduction for compress and "
             "~10% for eqntott/gperf, and stresses that LVP REDUCES "
             "bandwidth where other speculation increases it.",
             std::move(t)}};
}

} // namespace lvplib::sim
