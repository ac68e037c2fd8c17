#include "core/value_predictor.hh"

#include <memory>
#include <sstream>
#include <type_traits>

#include "core/fcm_unit.hh"
#include "core/lvp_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/vtage_unit.hh"

namespace lvplib::core
{

namespace
{

/** The unit class a config (as seen by a std::visit lambda) builds. */
template <typename Config>
using UnitFor = typename std::decay_t<Config>::Unit;

/** Append one fingerprint component behind a separator that never
 *  occurs in configuration names. */
template <typename T>
void
part(std::ostringstream &os, const T &v)
{
    os << '|' << v;
}

void
fields(std::ostringstream &os, const LvpConfig &c)
{
    os << "lvp";
    part(os, c.name);
    for (auto v : {c.lvptEntries, c.historyDepth, c.lctEntries,
                   c.lctBits, c.cvuEntries, c.cvuWays, c.bhrBits})
        part(os, v);
    part(os, c.perfectPrediction);
    part(os, c.taggedLvpt);
}

void
fields(std::ostringstream &os, const StrideConfig &c)
{
    os << "stride";
    for (auto v : {c.entries, c.lctEntries, c.lctBits, c.cvuEntries,
                   c.strideConfBits})
        part(os, v);
}

void
fields(std::ostringstream &os, const FcmConfig &c)
{
    os << "fcm";
    for (auto v : {c.level1Entries, c.level2Entries, c.order,
                   c.lctEntries, c.lctBits})
        part(os, v);
}

void
fields(std::ostringstream &os, const VtageConfig &c)
{
    os << "vtage";
    for (auto v : {c.baseEntries, c.bankEntries, c.banks, c.tagBits,
                   c.confBits, c.minHistory, c.throttle})
        part(os, v);
}

void
fields(std::ostringstream &os, const SkewStrideConfig &c)
{
    os << "skewstride";
    for (auto v : {c.entriesPerWay, c.ways, c.tagBits, c.confBits,
                   c.replaceThreshold})
        part(os, v);
}

} // namespace

std::string
fingerprint(const PredictorSpec &spec)
{
    std::ostringstream os;
    std::visit([&](const auto &cfg) { fields(os, cfg); }, spec);
    return os.str();
}

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
