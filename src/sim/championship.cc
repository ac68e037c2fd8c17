/**
 * @file
 * The predictor championship (ROADMAP item 2): every predictor in
 * the registry runs over all 17 workloads through the shared
 * run-cache, and the leaderboard ranks them by mean
 * correctly-predicted-load rate with each contender's hardware bit
 * budget alongside — the CVP rule that a comparison is only fair at
 * a stated cost.
 */

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/value_predictor.hh"
#include "obs/metrics.hh"
#include "sim/extensions.hh"
#include "sim/parallel.hh"
#include "sim/run_cache.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{

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

} // namespace

std::vector<const core::PredictorInfo *>
championshipPredictors(const ExperimentOptions &opts)
{
    std::vector<const core::PredictorInfo *> out;
    if (opts.predictors.empty()) {
        for (const auto &info : core::predictorRegistry())
            out.push_back(&info);
        return out;
    }
    // Comma-separated registry names, kept in REGISTRY order (not
    // mention order) so a filtered run publishes the same metrics the
    // full run would for those predictors.
    std::string rest = opts.predictors;
    std::vector<std::string> names;
    while (!rest.empty()) {
        auto comma = rest.find(',');
        std::string name = rest.substr(0, comma);
        rest = comma == std::string::npos ? ""
                                          : rest.substr(comma + 1);
        if (name.empty())
            continue;
        if (!core::findPredictor(name))
            lvp_fatal("unknown predictor '%s' (see predictorRegistry)",
                      name.c_str());
        names.push_back(name);
    }
    for (const auto &info : core::predictorRegistry())
        if (std::find(names.begin(), names.end(), info.name) !=
            names.end())
            out.push_back(&info);
    return out;
}

std::vector<ExperimentSection>
championship(const ExperimentOptions &opts)
{
    const auto preds = championshipPredictors(opts);
    std::vector<core::PredictorSpec> specs;
    for (const auto *info : preds)
        specs.push_back(info->spec);
    const auto &suite = allWorkloads();

    // One fan-out sweep per workload: every still-uncached contender
    // is served by a single replay of the shared phase-1 trace.
    auto rows = experimentPool().map(
        suite, [&](const Workload &w) {
            return cache().predictorOnlyMany(w, CodeGen::Ppc,
                                             opts.scale, specs,
                                             runCfg(opts));
        });

    auto good = [](const core::LvpStats &s) {
        return pct(s.correct + s.constants, s.loads);
    };

    struct Standing
    {
        const core::PredictorInfo *info = nullptr;
        std::uint64_t bits = 0;
        double meanCover = 0, meanAccur = 0, meanGood = 0;
        unsigned rank = 0;
    };
    std::vector<Standing> standings(preds.size());
    for (std::size_t p = 0; p < preds.size(); ++p) {
        Standing &st = standings[p];
        st.info = preds[p];
        st.bits = core::makePredictor(specs[p])->bitBudget();
        std::vector<double> covers, accurs, goods;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const core::LvpStats &s = rows[i][p];
            covers.push_back(s.predictionRate());
            accurs.push_back(s.accuracy());
            goods.push_back(good(s));
            pub({"championship", st.info->name, suite[i].name,
                 "cover"},
                s.predictionRate());
            pub({"championship", st.info->name, suite[i].name,
                 "accur"},
                s.accuracy());
            pub({"championship", st.info->name, suite[i].name, "good"},
                good(s));
        }
        st.meanCover = mean(covers);
        st.meanAccur = mean(accurs);
        st.meanGood = mean(goods);
    }

    // Rank by mean good-prediction rate; stable sort keeps registry
    // order on ties so the leaderboard is deterministic.
    std::vector<std::size_t> order(standings.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return standings[a].meanGood >
                                standings[b].meanGood;
                     });
    for (std::size_t r = 0; r < order.size(); ++r)
        standings[order[r]].rank = static_cast<unsigned>(r + 1);

    TextTable t;
    t.header({"Rank", "Predictor", "kbits", "Mean cover", "Mean accur",
              "Mean good", "Good/kbit"});
    for (std::size_t r = 0; r < order.size(); ++r) {
        const Standing &st = standings[order[r]];
        const double kbits = static_cast<double>(st.bits) / 1024.0;
        t.row({std::to_string(st.rank), st.info->name,
               TextTable::fmtDouble(kbits, 1),
               TextTable::fmtPct(st.meanCover),
               TextTable::fmtPct(st.meanAccur),
               TextTable::fmtPct(st.meanGood),
               TextTable::fmtDouble(st.meanGood / kbits)});
        pub({"championship", st.info->name, "bits"},
            static_cast<double>(st.bits));
        pub({"championship", st.info->name, "mean_cover"},
            st.meanCover);
        pub({"championship", st.info->name, "mean_accur"},
            st.meanAccur);
        pub({"championship", st.info->name, "mean_good"}, st.meanGood);
        pub({"championship", st.info->name, "rank"},
            static_cast<double>(st.rank));
    }

    return {{"Championship: predictor leaderboard over the full suite",
             "the paper's Simple last-value unit is the 1996 baseline; "
             "stride and FCM realize its Section 7 future work, and "
             "the CVP-bred contenders (VTAGE, skewed stride) show "
             "where 20 more years of the same research line went. "
             "Budget column keeps the comparison honest: a win at 3x "
             "the bits is a different claim than a win at parity.",
             std::move(t)}};
}

} // namespace lvplib::sim
