#include "core/value_predictor.hh"

#include <memory>
#include <type_traits>

#include "core/fcm_unit.hh"
#include "core/lvp_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/vtage_unit.hh"
#include "util/stats.hh"

namespace lvplib::core
{

double
LvpStats::unpredHitRate() const
{
    return pct(unpredIdentified, actualUnpred);
}

double
LvpStats::predHitRate() const
{
    return pct(predIdentified, actualPred);
}

double
LvpStats::constantRate() const
{
    return pct(constants, loads);
}

double
LvpStats::predictionRate() const
{
    return pct(incorrect + correct + constants, loads);
}

double
LvpStats::accuracy() const
{
    return pct(correct + constants, incorrect + correct + constants);
}

LvpStats &
LvpStats::operator+=(const LvpStats &o)
{
    loads += o.loads;
    noPred += o.noPred;
    incorrect += o.incorrect;
    correct += o.correct;
    constants += o.constants;
    actualUnpred += o.actualUnpred;
    actualPred += o.actualPred;
    unpredIdentified += o.unpredIdentified;
    predIdentified += o.predIdentified;
    cvuInsertions += o.cvuInsertions;
    cvuStoreInvalidations += o.cvuStoreInvalidations;
    cvuDisplaceInvalidations += o.cvuDisplaceInvalidations;
    cvuStaleHits += o.cvuStaleHits;
    return *this;
}

namespace
{

/** The unit class a config (as seen by a std::visit lambda) builds. */
template <typename Config>
using UnitFor = typename std::decay_t<Config>::Unit;

} // namespace

std::unique_ptr<ValuePredictor>
makePredictor(const PredictorSpec &spec)
{
    return std::visit(
        [](const auto &cfg) -> std::unique_ptr<ValuePredictor> {
            return std::make_unique<UnitFor<decltype(cfg)>>(cfg);
        },
        spec);
}

const std::vector<PredictorInfo> &
predictorRegistry()
{
    static const std::vector<PredictorInfo> registry = {
        {"lvp", "paper LVPT+LCT+CVU last-value unit (Simple)",
         LvpConfig::simple()},
        {"stride", "direct-mapped stride unit with LCT gate and CVU",
         StrideConfig::simple()},
        {"fcm", "two-level finite-context-method unit with LCT gate",
         FcmConfig::simple()},
        {"vtage",
         "tagged geometric-history context unit with confidence "
         "saturation and mispredict-burst throttling",
         VtageConfig::simple()},
        {"skewstride",
         "3-way skewed-associative tagged stride unit (SVP training)",
         SkewStrideConfig::simple()},
    };
    return registry;
}

const PredictorInfo *
findPredictor(std::string_view name)
{
    for (const auto &info : predictorRegistry())
        if (info.name == name)
            return &info;
    return nullptr;
}

PredictorAnnotator::PredictorAnnotator(const PredictorSpec &spec,
                                       trace::TraceSink &downstream)
{
    std::visit(
        [&](const auto &cfg) {
            auto stage = std::make_unique<Annotator<UnitFor<decltype(cfg)>>>(
                cfg, downstream);
            unit_ = &stage->unit();
            stage_ = std::move(stage);
        },
        spec);
}

} // namespace lvplib::core
