#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/config.hh"
#include "core/lvp_unit.hh"
#include "core/value_predictor.hh"
#include "layers.hh"
#include "obs/check.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "paper_ref.hh"
#include "sim/parallel.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "sim/suite.hh"
#include "trace/trace_file.hh"
#include "uarch/machine_config.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace lvplib;
namespace fs = std::filesystem;
using workloads::CodeGen;

namespace
{

/** Setup runs this many times up front and once more before every
 *  pass after the first, so its samples span the whole run; setup_s is
 *  their median. */
constexpr int kSetupReps = 3;

/** Scale of the suite and timing workloads (the golden scale). */
constexpr unsigned kGoldenScale = 4;

/** Scale of the predict workload: longer traces, larger footprint. */
constexpr unsigned kPredictScale = 16;

/** Experiments that print configuration tables and simulate nothing. */
const std::set<std::string> kStaticExperiments = {"table2", "table5"};

const char *const kCoreUnitsPaper[] = {"lvp_simple", "lvp_constant",
                                       "lvp_limit", "lvp_perfect"};
const char *const kModels[] = {"ppc620", "ppc620plus", "alpha21164"};
const char *const kSpanKinds[] = {"trace", "functional", "locality", "lvp",
                                  "pred", "ppc620", "alpha21164"};

std::string
unitName(const core::LvpConfig &cfg)
{
    return "lvp_" + obs::metricPart(cfg.name);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

/** One (workload, codegen) program in seed order. */
struct Program
{
    const workloads::Workload *w = nullptr;
    CodeGen cg = CodeGen::Ppc;
    std::string key; ///< "grep/ppc"
    std::unique_ptr<isa::Program> prog;
    std::string path;       ///< trace file (timing, predict)
    std::uint64_t fp = 0;   ///< trace fingerprint
};

/** The 34 programs, permuted by @p seed (Fisher-Yates over
 *  mt19937_64, so a seed names the same order on every host). */
std::vector<Program>
programsInSeedOrder(std::uint64_t seed)
{
    std::vector<Program> ps;
    for (const auto &w : workloads::allWorkloads())
        for (CodeGen cg : {CodeGen::Ppc, CodeGen::Alpha}) {
            Program p;
            p.w = &w;
            p.cg = cg;
            p.key = w.name + "/" + workloads::codeGenName(cg);
            ps.push_back(std::move(p));
        }
    std::mt19937_64 rng(seed);
    for (std::size_t i = ps.size(); i > 1; --i)
        std::swap(ps[i - 1], ps[rng() % i]);
    return ps;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

obs::JsonValue
readJson(const std::string &path)
{
    std::string error;
    auto v = obs::parseJson(readFile(path), error);
    if (!v)
        throw std::runtime_error("'" + path + "' is not JSON: " + error);
    return *v;
}

/** Measured-phase loop: run @p pass until @p seconds have been spent
 *  and at least @p minPasses passes ran. @p pass gets the pass index. */
template <typename Fn>
void
measureFor(double seconds, int minPasses, Fn pass)
{
    auto t0 = Clock::now();
    int i = 0;
    while (i < minPasses || since(t0) < seconds)
        pass(i++);
}

/** Every metric the run reports, at 0 until measured; returns the
 *  setter for measured values. */
auto
initMetrics(Result &r, bool traced)
{
    for (const auto &[name, unit] :
         traced ? perLayerMetrics() : endToEndMetrics())
        r.metrics[name] = {0, unit};
    return [&r](const std::string &name, double v) {
        r.metrics.at(name).value = v;
    };
}

// --------------------------------------------------------------------
// suite

/** Size in bytes and record count of every trace in @p dir. */
std::pair<std::uint64_t, std::uint64_t>
traceDirTotals(const std::string &dir)
{
    std::uint64_t bytes = 0, records = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() != ".trace")
            continue;
        auto rep = trace::verifyTraceFile(e.path().string());
        bytes += e.file_size();
        records += rep.records;
    }
    return {bytes, records};
}

/** The metrics document `lvpbench --metrics-out` writes. */
std::string
metricsDump(const sim::ExperimentOptions &opts)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.member("schema", obs::kMetricsSchema);
    w.key("context");
    w.beginObject();
    w.member("scale", static_cast<std::uint64_t>(opts.scale));
    w.member("max_instructions", opts.maxInstructions);
    w.endObject();
    w.key("metrics");
    obs::metrics().writeJson(w);
    w.endObject();
    return os.str();
}

void
runSuite(const Options &o, Result &res)
{
    sim::setExperimentJobs(1);
    sim::setShardJobs(1);
    sim::ExperimentOptions eopts;
    eopts.scale = kGoldenScale;
    auto &cache = sim::RunCache::instance();
    auto &tl = obs::Timeline::process();
    auto programs = programsInSeedOrder(o.seed);
    obs::JsonValue golden = readJson(o.repo + "/bench/golden/metrics.json");
    auto set = initMetrics(res, o.trace);

    auto buildAll = [&] {
        for (const auto &p : programs)
            cache.program(*p.w, p.cg, eopts.scale);
    };
    std::vector<double> setups;
    for (int r = 0; r < kSetupReps; ++r) {
        cache.clear();
        auto t0 = Clock::now();
        buildAll();
        setups.push_back(since(t0));
    }

    struct Pass
    {
        double wall = 0;
        std::uint64_t uniqueRecords = 0, variantRecords = 0;
        std::uint64_t traceBytes = 0;
        std::map<std::string, double> expSeconds;
        std::vector<Span> spans;
        double tl0 = 0, tl1 = 0;
    };
    std::vector<Pass> plain, traced;
    sim::RunCache::Stats cs;
    std::optional<double> gap;

    measureFor(o.seconds, o.trace ? 2 : 1, [&](int i) {
        // A traced run alternates plain and traced passes so the
        // tracing overhead is measured in the same process.
        bool tracing = o.trace && i % 2 == 1;
        std::string dir = o.work + "/suite-" + std::to_string(i);
        fs::remove_all(dir);
        fs::create_directories(dir);
        cache.clear();
        cache.setTraceDir(dir);
        // Programs are setup, not part of the pass: each rebuild is
        // one more setup sample, spread over the run.
        auto tb = Clock::now();
        buildAll();
        setups.push_back(since(tb));
        tl.clear();
        tl.setEnabled(tracing);
        Pass pass;
        pass.tl0 = static_cast<double>(tl.nowUs()) * 1e-6;
        std::uint64_t instr0 = sim::instructionsProcessed();
        auto t0 = Clock::now();
        std::set<std::string> thrown;
        for (const auto &spec : sim::experimentSuite()) {
            auto te = Clock::now();
            try {
                obs::Timeline::Scope span(spec.id, "experiment");
                spec.run(eopts);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: experiment %s threw: %s\n",
                             spec.id.c_str(), e.what());
                thrown.insert(spec.id);
            }
            pass.expSeconds[spec.id] = since(te);
        }
        pass.wall = since(t0);
        std::fprintf(stderr, "perfbench: pass %d%s: %.3f s\n", i,
                     tracing ? " (traced)" : "", pass.wall);
        pass.tl1 = static_cast<double>(tl.nowUs()) * 1e-6;
        tl.setEnabled(false);
        pass.variantRecords = sim::instructionsProcessed() - instr0;
        std::tie(pass.traceBytes, pass.uniqueRecords) = traceDirTotals(dir);
        cs = cache.stats();
        cache.setTraceDir("");
        fs::remove_all(dir);
        if (tracing) {
            std::ostringstream os;
            tl.writeJson(os);
            pass.spans = parseTimeline(os.str());
        }

        // Golden check: one operation per experiment; an experiment
        // fails when it threw or any of its metrics drifted.
        std::string error;
        auto current = obs::parseJson(metricsDump(eopts), error);
        std::set<std::string> bad = thrown;
        if (!current) {
            for (const auto &spec : sim::experimentSuite())
                bad.insert(spec.id);
        } else {
            auto report = obs::checkMetrics(golden, *current, 1e-6);
            for (const auto &d : report.drifts) {
                std::fprintf(stderr, "perfbench: golden drift %s: %s\n",
                             d.name.c_str(), d.reason.c_str());
                bad.insert(d.name.substr(0, d.name.find('.')));
            }
            if (!report.error.empty())
                bad.insert("golden");
            const obs::JsonValue *ms = current->find("metrics");
            gap = paperGapPct([&](const char *key) -> std::optional<double> {
                const obs::JsonValue *m = ms ? ms->find(key) : nullptr;
                const obs::JsonValue *v = m ? m->find("value") : nullptr;
                if (!v || !v->isNumber())
                    return std::nullopt;
                return v->asDouble();
            });
        }
        res.attempted += sim::experimentSuite().size();
        res.failed += std::min(bad.size(), sim::experimentSuite().size());
        (tracing ? traced : plain).push_back(std::move(pass));
    });

    auto values = [](const std::vector<Pass> &ps, auto field) {
        std::vector<double> v;
        for (const auto &p : ps)
            v.push_back(field(p));
        return v;
    };
    auto med = [&](const std::vector<Pass> &ps, auto field) {
        return median(values(ps, field));
    };
    auto perExperiment = [](const std::vector<Pass> &ps) {
        UnitSamples u;
        for (const auto &p : ps)
            for (const auto &[id, t] : p.expSeconds)
                u[id].push_back(t);
        return u;
    };
    double wall = sumOfMedians(perExperiment(plain));
    const Pass &last = plain.back();
    if (!o.trace) {
        set("wall_s", wall);
        set("setup_s", median(setups));
        set("sim_mips", static_cast<double>(last.uniqueRecords) / wall / 1e6);
        set("variant_mrec_per_s",
            static_cast<double>(last.variantRecords) / wall / 1e6);
        set("peak_rss_mb", peakRssMb());
        set("trace_cache_mb", static_cast<double>(last.traceBytes) / 1e6);
        return;
    }

    set("workloads.build_s", median(setups));
    for (const auto &spec : sim::experimentSuite())
        if (!kStaticExperiments.count(spec.id))
            set("sim.exp." + spec.id + "_s", med(traced, [&](const Pass &p) {
                    return p.expSeconds.at(spec.id);
                }));
    set("sim.runcache.hits", static_cast<double>(cs.hits));
    set("sim.runcache.misses", static_cast<double>(cs.misses));
    set("sim.runcache.hit_ratio",
        cs.hits + cs.misses ? static_cast<double>(cs.hits) /
                                  static_cast<double>(cs.hits + cs.misses)
                            : 0.0);
    set("sim.runcache.trace_replays", static_cast<double>(cs.traceReplays));
    set("sim.runcache.trace_writes", static_cast<double>(cs.traceWrites));
    set("sim.runcache.trace_invalid", static_cast<double>(cs.traceInvalid));
    set("trace.replays", static_cast<double>(cs.traceReplays));
    set("paper_gap_pct", gap.value_or(0));

    // Roll the library's own spans up per kind and per pool thread.
    for (const char *kind : kSpanKinds)
        set(std::string("sim.span.") + kind + "_s",
            med(traced, [&](const Pass &p) {
                auto self = selfTimeByKind(p.spans, "experiment");
                auto it = self.find(kind);
                return it == self.end() ? 0.0 : it->second;
            }));
    set("unattributed_s", med(traced, [](const Pass &p) {
            return uncoveredSeconds(p.spans, "experiment", p.tl0, p.tl1);
        }));
    double workers = sim::experimentPool().jobs();
    auto poolBusy = [](const Pass &p) {
        // The main thread only opens "experiment" spans; every other
        // timeline thread is a pool worker.
        int mainTid = -1;
        for (const auto &s : p.spans)
            if (s.cat == "experiment")
                mainTid = s.tid;
        double busy = 0;
        for (const auto &[tid, b] : busyByThread(p.spans, "experiment"))
            if (tid != mainTid)
                busy += b;
        return busy;
    };
    set("sim.pool.busy_frac", med(traced, [&](const Pass &p) {
            return poolBusy(p) / (workers * p.wall);
        }));
    set("sim.pool.idle_s", med(traced, [&](const Pass &p) {
            return workers * p.wall - poolBusy(p);
        }));
    auto wallOf = [](const Pass &p) { return p.wall; };
    set("obs.tracing_overhead_frac",
        pairedOverhead(values(plain, wallOf), values(traced, wallOf)));
}

// --------------------------------------------------------------------
// timing / predict: composed replays

enum class Model
{
    None,
    Ppc620,
    Ppc620Plus,
    Alpha21164
};

const char *
modelName(Model m)
{
    switch (m) {
    case Model::Ppc620:
        return "ppc620";
    case Model::Ppc620Plus:
        return "ppc620plus";
    case Model::Alpha21164:
        return "alpha21164";
    case Model::None:
        break;
    }
    return "none";
}

/** One consumer of a replay: a timing model, a predictor, or both. */
struct Variant
{
    Model model = Model::None;
    std::optional<core::LvpConfig> lvp;
    const core::PredictorInfo *pred = nullptr;

    /** Digest key suffix, e.g. "ppc620.simple" or "core.vtage". */
    std::string
    name() const
    {
        std::string unit = lvp    ? obs::metricPart(lvp->name)
                           : pred ? pred->name
                                  : "none";
        return model == Model::None ? "core." + unitName()
                                    : std::string(modelName(model)) + "." +
                                          unit;
    }

    /** core.<unit> name of the predictor, "" when none. */
    std::string
    unitName() const
    {
        return lvp ? perfbench::unitName(*lvp) : pred ? pred->name : "";
    }
};

/** Discards records, like the library's own predictor-only sink. */
class NullSink : public trace::TraceSink
{
  public:
    void consume(const trace::TraceRecord &) override {}
};

/**
 * One variant's stage chain: [annotator ->] model, each optionally
 * wrapped in a TimedSink — the same chain RunCache::ppc620Many builds
 * per variant.
 */
class Consumer
{
  public:
    Consumer(const Variant &v, bool timed) : v_(v)
    {
        trace::TraceSink *down = nullptr;
        switch (v.model) {
        case Model::Ppc620:
        case Model::Ppc620Plus:
            ppc_ = std::make_unique<uarch::Ppc620Model>(
                v.model == Model::Ppc620 ? uarch::Ppc620Config::base620()
                                         : uarch::Ppc620Config::plus620(),
                v.lvp.has_value());
            down = ppc_.get();
            break;
        case Model::Alpha21164:
            alpha_ = std::make_unique<uarch::Alpha21164Model>(
                uarch::AlphaConfig::base21164(), v.lvp.has_value());
            down = alpha_.get();
            break;
        case Model::None:
            null_ = std::make_unique<NullSink>();
            down = null_.get();
            break;
        }
        if (timed && v.model != Model::None) {
            modelTimed_ = std::make_unique<TimedSink>(*down);
            down = modelTimed_.get();
        }
        if (v.lvp) {
            lvpAnnot_ = std::make_unique<core::LvpAnnotator>(*v.lvp, *down);
            down = lvpAnnot_.get();
        } else if (v.pred) {
            predAnnot_ =
                std::make_unique<core::PredictorAnnotator>(*v.pred, *down);
            down = predAnnot_.get();
        }
        if (timed && (lvpAnnot_ || predAnnot_)) {
            annotTimed_ = std::make_unique<TimedSink>(*down);
            down = annotTimed_.get();
        }
        top_ = down;
    }

    Consumer(const Consumer &) = delete;
    Consumer &operator=(const Consumer &) = delete;

    trace::TraceSink &top() { return *top_; }

    /** The TimedSink at the top of the chain (traced runs). */
    const TimedSink *
    timedTop() const
    {
        return annotTimed_ ? annotTimed_.get() : modelTimed_.get();
    }

    const Variant &variant() const { return v_; }

    const core::LvpStats &
    lvp() const
    {
        static const core::LvpStats none;
        return lvpAnnot_    ? lvpAnnot_->unit().stats()
               : predAnnot_ ? predAnnot_->unit().stats()
                            : none;
    }

    std::uint64_t
    digest(std::uint64_t records) const
    {
        if (ppc_)
            return perfbench::digest(records, lvp(), ppc_->stats());
        if (alpha_)
            return perfbench::digest(records, lvp(), alpha_->stats());
        return perfbench::digest(records, lvp());
    }

    /** @{ Traced runs: self seconds of the timing model and of the
     *  predictor stage. */
    double modelSeconds() const
    {
        return modelTimed_ ? modelTimed_->seconds() : 0;
    }
    double unitSeconds() const
    {
        if (!annotTimed_)
            return 0;
        return annotTimed_->seconds() -
               (modelTimed_ ? modelTimed_->seconds() : 0);
    }
    std::uint64_t modelRecords() const
    {
        return modelTimed_ ? modelTimed_->records() : 0;
    }
    /** @} */

    /** Simulated cycles and instructions, for IPC. */
    std::pair<double, double>
    cyclesInsts() const
    {
        if (ppc_)
            return {static_cast<double>(ppc_->stats().cycles),
                    static_cast<double>(ppc_->stats().instructions)};
        if (alpha_)
            return {static_cast<double>(alpha_->stats().cycles),
                    static_cast<double>(alpha_->stats().instructions)};
        return {0, 0};
    }

    const uarch::OooStats *
    ooo() const
    {
        return ppc_ ? &ppc_->stats() : nullptr;
    }

  private:
    Variant v_;
    std::unique_ptr<uarch::Ppc620Model> ppc_;
    std::unique_ptr<uarch::Alpha21164Model> alpha_;
    std::unique_ptr<NullSink> null_;
    std::unique_ptr<TimedSink> modelTimed_;
    std::unique_ptr<core::LvpAnnotator> lvpAnnot_;
    std::unique_ptr<core::PredictorAnnotator> predAnnot_;
    std::unique_ptr<TimedSink> annotTimed_;
    trace::TraceSink *top_ = nullptr;
};

/** The variants fed by one replay of a trace. */
using Group = std::vector<Variant>;

/** The fig6/table6 variant sets for the program's machine, one replay
 *  per machine as fig6ppc, table6 and fig6alpha sweep them. */
std::vector<Group>
timingGroups(CodeGen cg)
{
    std::vector<Group> gs;
    if (cg == CodeGen::Ppc) {
        for (Model m : {Model::Ppc620, Model::Ppc620Plus}) {
            Group g = {{m, std::nullopt, nullptr}};
            for (const auto &cfg : core::LvpConfig::paperConfigs())
                g.push_back({m, cfg, nullptr});
            gs.push_back(std::move(g));
        }
    } else {
        Group g = {{Model::Alpha21164, std::nullopt, nullptr}};
        for (const auto &cfg : {core::LvpConfig::simple(),
                                core::LvpConfig::limit(),
                                core::LvpConfig::perfect()})
            g.push_back({Model::Alpha21164, cfg, nullptr});
        gs.push_back(std::move(g));
    }
    return gs;
}

/** Every registry predictor plus the four paper LVP units, all fed by
 *  one replay. */
std::vector<Group>
predictGroups(CodeGen)
{
    Group g;
    for (const auto &info : core::predictorRegistry())
        g.push_back({Model::None, std::nullopt, &info});
    for (const auto &cfg : core::LvpConfig::paperConfigs())
        g.push_back({Model::None, cfg, nullptr});
    return {g};
}

/** Per-layer seconds and counts of one traced pass. */
struct LayerPass
{
    double verify = 0, decode = 0, fanout = 0;
    double replay = 0;       ///< inside TraceFileReader::replay
    double unattributed = 0; ///< pass wall outside verify and replay
    std::map<std::string, double> unitSelf, modelSelf;
    std::map<std::string, double> modelRecords;
    std::map<std::string, core::LvpStats> unitStats;
    std::map<std::string, std::pair<double, double>> cyclesInsts;
    std::uint64_t l1Misses = 0, l1Accesses = 0;
    double bankCycles = 0, plusCycles = 0;
};

void
runReplays(const Options &o, bool predict, Result &res)
{
    const unsigned scale = predict ? kPredictScale : kGoldenScale;
    auto groupsFor = predict ? predictGroups : timingGroups;
    const std::string expectedPath =
        o.repo + "/perfbench/expected/" + o.workload + ".json";
    sim::RunConfig rc;
    auto programs = programsInSeedOrder(o.seed);
    std::string dir = o.work + "/" + o.workload + "-traces";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto set = initMetrics(res, o.trace);

    // Setup: build every program and write its phase-1 trace. It runs
    // kSetupReps times up front and once more before every pass.
    std::vector<double> setups, builds, vmSelf, encode;
    std::uint64_t vmInsts = 0, traceBytes = 0;
    auto setup = [&] {
        auto t0 = Clock::now();
        for (auto &p : programs)
            p.prog = std::make_unique<isa::Program>(p.w->build(p.cg, scale));
        builds.push_back(since(t0));
        double vm = 0, enc = 0;
        vmInsts = traceBytes = 0;
        for (auto &p : programs) {
            p.path = dir + "/" + p.w->name + "-" +
                     workloads::codeGenName(p.cg) + ".trace";
            p.fp = trace::mixFingerprint(
                trace::programFingerprint(*p.prog),
                "perfbench|" + p.key + "|s" + std::to_string(scale));
            trace::TraceFileWriter writer(p.path, p.fp);
            std::optional<TimedSink> timed;
            trace::TraceSink *sink = &writer;
            if (o.trace)
                sink = &timed.emplace(writer);
            vm::Interpreter interp(*p.prog);
            auto t1 = Clock::now();
            interp.run(sink, rc.maxInstructions);
            if (!interp.halted())
                sink->finish();
            double run = since(t1);
            auto t2 = Clock::now();
            if (!writer.close())
                throw std::runtime_error("cannot write trace '" + p.path +
                                         "': " + writer.error());
            double close = since(t2);
            if (timed) {
                vm += run - timed->seconds();
                enc += timed->seconds() + close;
            }
            vmInsts += interp.retired();
            traceBytes += fs::file_size(p.path);
        }
        setups.push_back(since(t0));
        vmSelf.push_back(vm);
        encode.push_back(enc);
    };
    for (int r = 0; r < kSetupReps; ++r)
        setup();

    std::map<std::string, std::string> expected;
    if (o.record.empty()) {
        obs::JsonValue doc = readJson(expectedPath);
        if (const auto *ds = doc.find("digests"))
            for (const auto &[k, v] : ds->members())
                expected[k] = v.asString();
    }

    // The measured phase: one pass replays every program once.
    UnitSamples plainUnits;
    std::vector<double> plainWalls, tracedWalls;
    std::vector<LayerPass> layers;
    std::map<std::string, std::string> digests; // last pass
    // Per pass: records of each program once, of each replay, and
    // times the consumers each replay fed.
    std::uint64_t uniqueRecords = 0, replayedRecords = 0, variantRecords = 0;
    std::uint64_t replays = 0;
    // Replay @p p's trace once into @p group; false when it threw.
    // @p first: the program's first replay this pass.
    auto replayGroup = [&](const Program &p, const Group &group, bool first,
                           bool tracing, LayerPass &lp) {
        std::vector<std::unique_ptr<Consumer>> cs;
        std::vector<trace::TraceSink *> tops;
        for (const auto &v : group) {
            cs.push_back(std::make_unique<Consumer>(v, tracing));
            tops.push_back(&cs.back()->top());
        }
        trace::MultiSink multi(std::move(tops));
        std::optional<TimedSink> multiTimed;
        trace::TraceSink *top = &multi;
        if (tracing)
            top = &multiTimed.emplace(multi);
        std::uint64_t n = 0;
        auto tr = Clock::now();
        try {
            trace::TraceFileReader reader(p.path, *p.prog, p.fp);
            n = reader.replay(*top);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: replay of %s threw: %s\n",
                         p.key.c_str(), e.what());
            res.failed += group.size();
            return false;
        }
        double replay = since(tr);
        ++replays;
        replayedRecords += n;
        if (first)
            uniqueRecords += n;
        variantRecords += n * cs.size();
        for (const auto &c : cs) {
            std::string key = p.key + "/" + c->variant().name();
            std::string d = hex(c->digest(n));
            digests[key] = d;
            if (o.record.empty() && expected[key] != d) {
                std::fprintf(stderr,
                             "perfbench: digest mismatch %s: %s, "
                             "expected %s\n",
                             key.c_str(), d.c_str(), expected[key].c_str());
                ++res.failed;
            }
        }
        if (!tracing)
            return true;
        lp.replay += replay;
        std::vector<const TimedSink *> children;
        for (const auto &c : cs)
            children.push_back(c->timedTop());
        lp.decode += replay - multiTimed->seconds();
        lp.fanout += selfSeconds(multiTimed->seconds(), children);
        for (const auto &c : cs) {
            const Variant &v = c->variant();
            if (!v.unitName().empty()) {
                lp.unitSelf[v.unitName()] += c->unitSeconds();
                lp.unitStats[v.unitName()] += c->lvp();
            }
            if (v.model == Model::None)
                continue;
            std::string m = modelName(v.model);
            lp.modelSelf[m] += c->modelSeconds();
            lp.modelRecords[m] += static_cast<double>(c->modelRecords());
            auto [cyc, ins] = c->cyclesInsts();
            lp.cyclesInsts[m].first += cyc;
            lp.cyclesInsts[m].second += ins;
            if (v.model == Model::Ppc620) {
                lp.l1Misses += c->ooo()->l1Misses;
                lp.l1Accesses += c->ooo()->l1Accesses;
            } else if (v.model == Model::Ppc620Plus) {
                lp.bankCycles +=
                    static_cast<double>(c->ooo()->bankConflictCycles);
                lp.plusCycles += cyc;
            }
        }
        return true;
    };

    measureFor(o.seconds, o.trace ? 2 : 1, [&](int i) {
        bool tracing = o.trace && i % 2 == 1;
        if (i > 0)
            setup();
        LayerPass lp;
        uniqueRecords = replayedRecords = variantRecords = replays = 0;
        auto t0 = Clock::now();
        for (const auto &p : programs) {
            auto groups = groupsFor(p.cg);
            std::size_t variants = 0;
            for (const auto &g : groups)
                variants += g.size();
            res.attempted += variants;
            auto tp = Clock::now();
            auto vr = trace::verifyTraceFile(p.path, p.fp);
            lp.verify += since(tp);
            if (!vr.ok()) {
                std::fprintf(stderr, "perfbench: trace %s invalid: %s\n",
                             p.path.c_str(), vr.detail.c_str());
                res.failed += variants;
                continue;
            }
            bool ok = true;
            for (const auto &g : groups)
                ok = replayGroup(p, g, &g == &groups.front(), tracing, lp) &&
                     ok;
            if (ok && !tracing)
                plainUnits[p.key].push_back(since(tp));
        }
        double wall = since(t0);
        std::fprintf(stderr, "perfbench: pass %d%s: %.3f s\n", i,
                     tracing ? " (traced)" : "", wall);
        (tracing ? tracedWalls : plainWalls).push_back(wall);
        if (tracing) {
            lp.unattributed = wall - lp.verify - lp.replay;
            layers.push_back(std::move(lp));
        }
    });

    if (!o.record.empty()) {
        std::ofstream f(o.record, std::ios::binary | std::ios::trunc);
        obs::JsonWriter w(f);
        w.beginObject();
        w.member("workload", o.workload);
        w.member("scale", static_cast<std::uint64_t>(scale));
        w.key("digests");
        w.beginObject();
        for (const auto &[k, d] : digests)
            w.member(k, d);
        w.endObject();
        w.endObject();
        f << '\n';
        fs::remove_all(dir);
        return;
    }

    // Cross-check: the composed pipeline must be the library's own.
    // The first program of each codegen in seed order is rerun through
    // a private RunCache (in-memory interpretation, no trace files).
    {
        sim::RunCache cache;
        cache.setTraceDir("");
        auto check = [&](const Program &p, const Variant &v,
                         std::uint64_t d) {
            ++res.attempted;
            std::string key = p.key + "/" + v.name();
            auto it = digests.find(key);
            if (it == digests.end() || it->second != hex(d)) {
                std::fprintf(stderr,
                             "perfbench: RunCache disagrees on %s\n",
                             key.c_str());
                ++res.failed;
            }
        };
        auto records = [&](const Program &p) {
            return trace::verifyTraceFile(p.path, p.fp).records;
        };
        auto paper = core::LvpConfig::paperConfigs();
        const auto &reg = core::predictorRegistry();
        for (CodeGen cg : {CodeGen::Ppc, CodeGen::Alpha}) {
            const Program &p = *std::find_if(
                programs.begin(), programs.end(),
                [&](const Program &q) { return q.cg == cg; });
            std::uint64_t n = records(p);
            if (predict) {
                const auto &info = reg[o.seed % reg.size()];
                check(p, {Model::None, std::nullopt, &info},
                      digest(n, cache.predictorOnly(*p.w, cg, scale, info,
                                                    rc)));
                const auto &cfg = paper[o.seed % paper.size()];
                check(p, {Model::None, cfg, nullptr},
                      digest(n, cache.lvpOnly(*p.w, cg, scale, cfg, rc)));
            } else if (cg == CodeGen::Ppc) {
                const auto &cfg = paper[o.seed % paper.size()];
                auto base = cache.ppc620(*p.w, cg, scale,
                                         uarch::Ppc620Config::base620(),
                                         cfg, rc);
                check(p, {Model::Ppc620, cfg, nullptr},
                      digest(n, base.lvp, base.timing));
                auto plus = cache.ppc620(*p.w, cg, scale,
                                         uarch::Ppc620Config::plus620(),
                                         std::nullopt, rc);
                check(p, {Model::Ppc620Plus, std::nullopt, nullptr},
                      digest(n, plus.lvp, plus.timing));
            } else {
                auto cfg = core::LvpConfig::simple();
                auto run = cache.alpha21164(
                    *p.w, cg, scale, uarch::AlphaConfig::base21164(), cfg,
                    rc);
                check(p, {Model::Alpha21164, cfg, nullptr},
                      digest(n, run.lvp, run.timing));
            }
        }
    }
    fs::remove_all(dir);

    double wall = sumOfMedians(plainUnits);
    if (!o.trace) {
        set("wall_s", wall);
        set("setup_s", median(setups));
        set("sim_mips", static_cast<double>(uniqueRecords) / wall / 1e6);
        set("variant_mrec_per_s",
            static_cast<double>(variantRecords) / wall / 1e6);
        set("peak_rss_mb", peakRssMb());
        set("trace_cache_mb", static_cast<double>(traceBytes) / 1e6);
        return;
    }

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const auto &lp : layers)
            v.push_back(field(lp));
        return median(std::move(v));
    };
    set("workloads.build_s", median(builds));
    double vm = median(vmSelf);
    set("vm.self_s", vm);
    set("vm.insts", static_cast<double>(vmInsts));
    set("vm.minst_per_s", static_cast<double>(vmInsts) / vm / 1e6);
    set("trace.encode_s", median(encode));
    set("trace.bytes_per_record",
        static_cast<double>(traceBytes) / static_cast<double>(vmInsts));
    double decode = med([](const LayerPass &l) { return l.decode; });
    set("trace.decode_s", decode);
    set("trace.decode_mrec_per_s",
        static_cast<double>(replayedRecords) / decode / 1e6);
    set("trace.verify_s", med([](const LayerPass &l) { return l.verify; }));
    set("trace.replays", static_cast<double>(replays));
    set("sim.fanout.self_s", med([](const LayerPass &l) { return l.fanout; }));
    set("sim.fanout.width", static_cast<double>(variantRecords) /
                                static_cast<double>(replayedRecords));
    const LayerPass &last = layers.back();
    for (const auto &[unit, stats] : last.unitStats) {
        std::string k = "core." + unit;
        set(k + ".self_s",
            med([&](const LayerPass &l) { return l.unitSelf.at(unit); }));
        set(k + ".loads", static_cast<double>(stats.loads));
        set(k + ".coverage", stats.predictionRate());
        set(k + ".accuracy", stats.accuracy());
    }
    for (const auto &[m, recs] : last.modelRecords) {
        std::string k = "uarch." + m;
        double self =
            med([&](const LayerPass &l) { return l.modelSelf.at(m); });
        set(k + ".self_s", self);
        set(k + ".records", recs);
        set(k + ".mrec_per_s", recs / self / 1e6);
        auto [cyc, ins] = last.cyclesInsts.at(m);
        set(k + ".ipc", ins / cyc);
    }
    set("uarch.ppc620.l1_miss_ratio",
        last.l1Accesses ? static_cast<double>(last.l1Misses) /
                              static_cast<double>(last.l1Accesses)
                        : 0.0);
    set("uarch.ppc620plus.bank_conflict_pct",
        last.plusCycles ? 100 * last.bankCycles / last.plusCycles : 0.0);
    set("unattributed_s", med([](const LayerPass &l) { return l.unattributed; }));
    set("obs.tracing_overhead_frac", pairedOverhead(plainWalls, tracedWalls));
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"sim_mips", "MIPS"},
        {"variant_mrec_per_s", "Mrec/s"},
        {"peak_rss_mb", "MB"},
        {"trace_cache_mb", "MB"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const auto m = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"workloads.build_s", "s"},
            {"vm.self_s", "s"},
            {"vm.insts", "count"},
            {"vm.minst_per_s", "Minst/s"},
            {"trace.encode_s", "s"},
            {"trace.bytes_per_record", "B/rec"},
            {"trace.decode_s", "s"},
            {"trace.decode_mrec_per_s", "Mrec/s"},
            {"trace.verify_s", "s"},
            {"trace.replays", "count"},
        };
        std::vector<std::string> units;
        for (const auto &info : core::predictorRegistry())
            units.push_back(info.name);
        for (const char *u : kCoreUnitsPaper)
            units.push_back(u);
        for (const auto &u : units) {
            v.push_back({"core." + u + ".self_s", "s"});
            v.push_back({"core." + u + ".loads", "count"});
            v.push_back({"core." + u + ".coverage", "%"});
            v.push_back({"core." + u + ".accuracy", "%"});
        }
        for (const char *m : kModels) {
            std::string k = std::string("uarch.") + m;
            v.push_back({k + ".self_s", "s"});
            v.push_back({k + ".records", "count"});
            v.push_back({k + ".mrec_per_s", "Mrec/s"});
            v.push_back({k + ".ipc", "inst/cycle"});
        }
        v.push_back({"uarch.ppc620.l1_miss_ratio", "ratio"});
        v.push_back({"uarch.ppc620plus.bank_conflict_pct", "%"});
        v.push_back({"sim.fanout.self_s", "s"});
        v.push_back({"sim.fanout.width", "count"});
        for (const auto &spec : sim::experimentSuite())
            if (!kStaticExperiments.count(spec.id))
                v.push_back({"sim.exp." + spec.id + "_s", "s"});
        for (const char *c : {"hits", "misses", "trace_replays",
                              "trace_writes", "trace_invalid"})
            v.push_back({std::string("sim.runcache.") + c, "count"});
        v.push_back({"sim.runcache.hit_ratio", "ratio"});
        v.push_back({"sim.pool.busy_frac", "ratio"});
        v.push_back({"sim.pool.idle_s", "s"});
        for (const char *k : kSpanKinds)
            v.push_back({std::string("sim.span.") + k + "_s", "s"});
        v.push_back({"unattributed_s", "s"});
        v.push_back({"obs.tracing_overhead_frac", "ratio"});
        v.push_back({"failed_ops_frac", "ratio"});
        v.push_back({"paper_gap_pct", "%"});
        return v;
    }();
    return m;
}

Result
runWorkload(const Options &o)
{
    Result res;
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    if (o.workload == "suite")
        runSuite(o, res);
    else if (o.workload == "timing" || o.workload == "predict")
        runReplays(o, o.workload == "predict", res);
    else
        throw std::runtime_error("unknown workload '" + o.workload + "'");

    if (o.trace)
        res.metrics["failed_ops_frac"].value =
            res.attempted ? static_cast<double>(res.failed) /
                                static_cast<double>(res.attempted)
                          : 0.0;
    res.stamp = {
        {"workload", o.workload},
        {"seed", std::to_string(o.seed)},
        {"seconds", std::to_string(o.seconds)},
        {"nproc", std::to_string(nproc)},
        {"cpu_model", cpuModel()},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"jobs", "1"},
        {"shards", "1"},
        {"scale", std::to_string(o.workload == "predict" ? kPredictScale
                                                         : kGoldenScale)},
    };
    return res;
}

} // namespace perfbench
