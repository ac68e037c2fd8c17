#include "sim/extensions.hh"

#include <vector>

#include "core/config.hh"
#include "core/value_profiler.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/result_table.hh"
#include "sim/run_cache.hh"
#include "uarch/machine_config.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

using core::LvpConfig;
using core::LvpStats;
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

/** One point of a predictor-only design sweep. */
struct SweepPoint
{
    std::string label; ///< printed
    std::string key;   ///< metric row key
    LvpConfig cfg;
};

/** Points that set @p field of @p base to each of @p values, labelled
 *  by the value and keyed prefix + value. */
std::vector<SweepPoint>
axis(LvpConfig base, std::uint32_t LvpConfig::*field,
     const std::string &prefix, std::initializer_list<std::uint32_t> values)
{
    std::vector<SweepPoint> points;
    for (std::uint32_t v : values) {
        base.*field = v;
        points.push_back({std::to_string(v), prefix + std::to_string(v),
                          base});
    }
    return points;
}

const Column kGood{"good predictions", "good"};

/**
 * One predictor-only sweep of ablationLvpDesign: row i is the
 * per-workload mean of @p stat under points[i]. Each workload's whole
 * sweep comes from one single-pass fan-out replay, and the means
 * accumulate in suite order.
 */
ExperimentSection
designSweep(const char *title, const char *expectation,
            const char *axisHeader, const Column &statColumn,
            double (*stat)(const LvpStats &),
            const std::vector<SweepPoint> &points,
            const ExperimentOptions &opts)
{
    std::vector<core::PredictorSpec> specs;
    for (const auto &p : points)
        specs.push_back(p.cfg);
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            std::vector<double> xs;
            for (const auto &st : cache().predictorOnlyMany(
                     w, CodeGen::Ppc, opts.scale, specs, runCfg(opts)))
                xs.push_back(stat(st));
            return xs;
        });
    ResultTable t("ablation_lvp_design", {{axisHeader}, statColumn});
    for (std::size_t c = 0; c < points.size(); ++c) {
        std::vector<double> col;
        for (const auto &r : rows)
            col.push_back(r[c]);
        t.row(points[c].label, points[c].key).cell(mean(col));
    }
    return {title, expectation, t.table()};
}

} // namespace

double
goodRate(const LvpStats &s)
{
    return pct(s.correct + s.constants, s.loads);
}

Sections
ablationPredictors(const ExperimentOptions &opts)
{
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return cache().predictorOnlyMany(
                w, CodeGen::Ppc, opts.scale,
                {LvpConfig::simple(), core::StrideConfig::simple(),
                 core::FcmConfig::simple()},
                runCfg(opts));
        });
    ResultTable t("ablation_predictors",
                  {{"Benchmark"},
                   {"LVP cover", "lvp_cover"},
                   {"LVP accur", "lvp_accur"},
                   {"LVP good", "lvp_good", Fmt::Pct, true},
                   {"Stride cover", "stride_cover"},
                   {"Stride accur", "stride_accur"},
                   {"Stride good", "stride_good", Fmt::Pct, true},
                   {"FCM cover", "fcm_cover"},
                   {"FCM accur", "fcm_accur"},
                   {"FCM good", "fcm_good", Fmt::Pct, true}});
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        t.row(suite[i].name);
        for (const LvpStats &s : rows[i])
            t.cell(s.predictionRate()).cell(s.accuracy()).cell(goodRate(s));
    }
    t.summary("MEAN", mean);
    return {{"Ablation: last-value LVP vs stride vs two-level FCM",
             "the paper's future-work directions, realized: stride "
             "detection matches last-value prediction on constants and "
             "wins on strided streams; the two-level finite-context "
             "method (where the field ended up) dominates both on "
             "patterned values, at the cost of losing the CVU's "
             "bandwidth savings.",
             t.table()}};
}

Sections
ablationLvpDesign(const ExperimentOptions &opts)
{
    Sections sections;
    sections.push_back(designSweep(
        "Ablation 1: LVPT capacity sweep",
        "small tables alias destructively; gains flatten once the hot "
        "static loads fit (the paper picked 1024).",
        "LVPT entries", kGood, goodRate,
        axis(LvpConfig::simple(), &LvpConfig::lvptEntries, "lvpt_",
             {64, 256, 1024, 4096}),
        opts));
    sections.push_back(designSweep(
        "Ablation 2: history-depth sweep",
        "deeper histories with perfect selection capture alternating "
        "values; most of the benefit arrives by depth 4-8 (the paper's "
        "Figure 1 contrasts depths 1 and 16).",
        "History depth (oracle select)", kGood, goodRate,
        axis(LvpConfig::limit(), &LvpConfig::historyDepth, "history_",
             {1, 2, 4, 8, 16}),
        opts));
    // Organization: the paper's full CAM vs a cheaper 4-way
    // set-associative CVU at the Constant config's capacity.
    auto cvu = axis(LvpConfig::constant(), &LvpConfig::cvuEntries, "cvu_",
                    {8, 32, 128, 512});
    auto assoc = LvpConfig::constant();
    assoc.cvuWays = 4;
    cvu.push_back({"128 (4-way set-assoc)", "cvu_128_4way", assoc});
    sections.push_back(designSweep(
        "Ablation 3: CVU capacity and organization",
        "more CAM entries keep more constants verified between stores; "
        "returns diminish as the hot constant set fits.",
        "CVU entries", {"constants (% of loads)", "constants"},
        [](const LvpStats &s) { return s.constantRate(); }, cvu, opts));
    sections.push_back(designSweep(
        "Ablation 4: branch-history-indexed LVPT (paper §7)",
        "hashing global branch history into the lookup index gives "
        "context-dependent loads separate entries (helping "
        "alternating-value loads) at the cost of spreading "
        "context-independent loads across more entries.",
        "BHR bits in LVPT index", kGood, goodRate,
        axis(LvpConfig::simple(), &LvpConfig::bhrBits, "bhr_",
             {0, 2, 4, 8}),
        opts));

    ResultTable recovery("ablation_lvp_design",
                         {{"Recovery policy"},
                          {"GM speedup (620, Simple)", "gm_speedup",
                           Fmt::Fixed3}});
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
        recovery
            .row(squash ? "squash + refetch" : "selective reissue (paper)",
                 squash ? "recovery_squash" : "recovery_reissue")
            .cell(geomean(speedups));
    }
    sections.push_back(
        {"Ablation 5: value-misprediction recovery policy",
         "the paper's selective reissue keeps the worst-case penalty at "
         "one cycle plus structural hazards; squashing like a branch "
         "mispredict erodes (or inverts) the Simple configuration's "
         "gains, which is why the LCT + selective recovery combination "
         "matters.",
         recovery.table()});

    auto tagged = LvpConfig::simple();
    tagged.taggedLvpt = true;
    sections.push_back(designSweep(
        "Ablation 6: tagged vs untagged LVPT",
        "tags remove destructive interference but also the constructive "
        "kind, and cost area; at 1024 entries the difference is small, "
        "which is why the paper left the table untagged.",
        "LVPT tagging", kGood, goodRate,
        {{"untagged (paper)", "lvpt_untagged", LvpConfig::simple()},
         {"tagged", "lvpt_tagged", tagged}},
        opts));
    return sections;
}

Sections
ablationAllValues(const ExperimentOptions &opts)
{
    // All-value profiling is this experiment's private phase (the
    // trace cache only records load values), so it interprets. Only
    // the counts outlive each run.
    auto profs = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return profileAllValues(
                       *cache().program(w, CodeGen::Ppc, opts.scale),
                       runCfg(opts))
                .counts();
        });
    ResultTable t("ablation_all_values",
                  {{"Benchmark"},
                   {"ALL d=1", "all_d1", Fmt::Pct, true},
                   {"ALL d=16", "all_d16", Fmt::Pct, true},
                   {"SCFX d=1", "scfx_d1"},
                   {"SCFX d=16", "scfx_d16"},
                   {"MCFX d=1", "mcfx_d1"},
                   {"FPU d=1", "fpu_d1"},
                   {"LSU d=1", "lsu_d1"},
                   {"LSU d=16", "lsu_d16"}});
    auto put = [&](const core::LocalityCounts &c, bool deep) {
        if (c.loads == 0) // no value of this kind: no number
            t.text("-");
        else
            t.cell(deep ? c.pctDepthN() : c.pctDepth1());
    };
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &prof = profs[i];
        t.row(suite[i].name);
        put(prof.total, false);
        put(prof.total, true);
        put(prof.byFu(isa::FuType::SCFX), false);
        put(prof.byFu(isa::FuType::SCFX), true);
        put(prof.byFu(isa::FuType::MCFX), false);
        put(prof.byFu(isa::FuType::FPU), false);
        put(prof.byFu(isa::FuType::LSU), false);
        put(prof.byFu(isa::FuType::LSU), true);
    }
    t.summary("MEAN", mean);
    return {{"Extension: value locality of ALL value-producing "
             "instructions",
             "the follow-up literature (e.g. Lipasti & Shen, MICRO-29) "
             "found that non-load instructions also exhibit substantial "
             "value locality; loads are not special, just the most "
             "latency-critical.",
             t.table()}};
}

Sections
ablationBpred(const ExperimentOptions &opts)
{
    auto bimodal_cfg = Ppc620Config::base620();
    auto gshare_cfg = Ppc620Config::base620();
    gshare_cfg.bpred.gshareBits = 8;
    const std::vector<RunCache::PpcVariant> variants = {
        {bimodal_cfg, std::nullopt},
        {gshare_cfg, std::nullopt},
        {gshare_cfg, LvpConfig::simple()}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return cache().ppc620Many(w, CodeGen::Ppc, opts.scale,
                                      variants, runCfg(opts));
        });
    auto mispred = [](const PpcRun &r) {
        return pct(r.timing.branchMispredicts, r.timing.instructions);
    };
    ResultTable t("ablation_bpred",
                  {{"Benchmark"},
                   {"bimodal mispred", "bimodal_mispred", Fmt::Pct2},
                   {"gshare mispred", "gshare_mispred", Fmt::Pct2},
                   {"bimodal IPC", "bimodal_ipc", Fmt::Fixed3, true},
                   {"gshare IPC", "gshare_ipc", Fmt::Fixed3, true},
                   {"gshare+LVP IPC", "gshare_lvp_ipc", Fmt::Fixed3, true}});
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &runs = rows[i];
        t.row(suite[i].name).cell(mispred(runs[0])).cell(mispred(runs[1]));
        for (const auto &r : runs)
            t.cell(r.timing.ipc());
    }
    t.summary("MEAN", mean);
    return {{"Ablation: bimodal vs gshare front end (with and without "
             "LVP)",
             "value prediction and better branch prediction compose: "
             "LVP collapses the load half of load-compare-branch "
             "chains, so its gains persist under a stronger front end.",
             t.table()}};
}

Sections
sec61MissRates(const ExperimentOptions &opts)
{
    const std::vector<RunCache::AlphaVariant> variants = {
        {uarch::AlphaConfig::base21164(), std::nullopt},
        {uarch::AlphaConfig::base21164(), LvpConfig::constant()}};
    auto rows = experimentPool().map(
        allWorkloads(), [&](const Workload &w) {
            return cache().alpha21164Many(w, CodeGen::Alpha, opts.scale,
                                          variants, runCfg(opts));
        });
    ResultTable t(
        "sec61",
        {{"Benchmark"},
         {"base miss/instr", "base_miss_per_instr", Fmt::Pct2},
         {"Constant miss/instr", "constant_miss_per_instr", Fmt::Pct2},
         {"miss reduction", "miss_reduction", Fmt::Pct, true},
         {"L1 access reduction", "access_reduction", Fmt::Pct, true},
         {"const loads", "const_loads", Fmt::Int}});
    const auto &suite = allWorkloads();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &base = rows[i][0].timing;
        const auto &with = rows[i][1].timing;
        double mr_base = base.missRatePerInst();
        double mr_with = with.missRatePerInst();
        t.row(suite[i].name)
            .cell(mr_base)
            .cell(mr_with)
            .cell(mr_base > 0 ? 100.0 * (mr_base - mr_with) / mr_base
                              : 0.0)
            .cell(100.0 *
                  (static_cast<double>(base.l1Accesses) -
                   static_cast<double>(with.l1Accesses)) /
                  static_cast<double>(base.l1Accesses))
            .cell(with.constLoads);
    }
    t.summary("MEAN", mean);
    return {{"Section 6.1: 21164 cache-bandwidth reduction from the CVU",
             "constant loads never touch the cache: the paper reports a "
             "20% miss-rate-per-instruction reduction for compress and "
             "~10% for eqntott/gperf, and stresses that LVP REDUCES "
             "bandwidth where other speculation increases it.",
             t.table()}};
}

} // namespace lvplib::sim
