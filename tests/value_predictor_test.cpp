/**
 * @file
 * The predictor championship's core contract: every contender sits
 * behind the core::ValuePredictor interface and its name-keyed
 * registry, counts each load through the one outcome rule
 * (LvpStats::record, and cvuGate for the CVU families), carries an
 * honest hardware bit budget, checkpoints as a copy of the whole unit
 * (chaos fault stream included) that restores into a fresh or a used
 * unit, and rejects impossible table geometries at construction time
 * with a clear fatal message. The run cache keys on the configs
 * themselves, compared member by member: a predictor spec or a
 * machine config that differs in any one field is another entry, and
 * one spec is one entry however it is reached, predictor-only or in
 * front of a timing model. Only the families with a CVU stamp
 * Constant loads.
 * Also behavior tests for the two CVP-bred contenders (VTAGE and the
 * skewed-associative stride unit).
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "core/config.hh"
#include "core/cvu.hh"
#include "core/lct.hh"
#include "core/lvp_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/value_predictor.hh"
#include "core/vtage_unit.hh"
#include "isa/program.hh"
#include "sim/pipeline_driver.hh"
#include "sim/run_cache.hh"
#include "uarch/machine_config.hh"
#include "util/rng.hh"
#include "workloads/workload.hh"

namespace lvplib::core
{
namespace
{

using trace::PredState;

constexpr Addr Pc0 = isa::layout::CodeBase;
constexpr Addr DataA = 0x100000;

TEST(PredictorRegistry, HoldsEveryContenderInStableOrder)
{
    // Registry order is part of the golden-metrics contract: the
    // championship publishes per-predictor metrics in this order.
    std::vector<std::string> names;
    for (const auto &info : predictorRegistry())
        names.push_back(info.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "lvp", "stride", "fcm", "vtage", "skewstride"}));
}

TEST(PredictorRegistry, FindsByNameAndRejectsUnknown)
{
    for (const auto &info : predictorRegistry()) {
        const PredictorInfo *found = findPredictor(info.name);
        ASSERT_NE(found, nullptr) << info.name;
        EXPECT_EQ(found, &info);
        EXPECT_FALSE(info.summary.empty()) << info.name;
    }
    EXPECT_EQ(findPredictor("oracle"), nullptr);
    EXPECT_EQ(findPredictor(""), nullptr);
}

TEST(PredictorRegistry, FactoriesMakeWorkingUnits)
{
    for (const auto &info : predictorRegistry()) {
        auto unit = makePredictor(info.spec);
        ASSERT_NE(unit, nullptr) << info.name;
        EXPECT_EQ(unit->stats().loads, 0u) << info.name;
        unit->onLoad(Pc0, DataA, 42, 8);
        unit->onStore(DataA, 8);
        unit->onBranch(true);
        EXPECT_EQ(unit->stats().loads, 1u) << info.name;
    }
}

TEST(PredictorRegistry, BitBudgetsAreSaneAndDistinct)
{
    // Every budget must be nonzero, constant across a unit's life, and
    // in a hardware-plausible band (the paper's Simple unit is ~68
    // kbit; nothing in the zoo should be a thousand times that).
    for (const auto &info : predictorRegistry()) {
        auto unit = makePredictor(info.spec);
        const std::uint64_t bits = unit->bitBudget();
        EXPECT_GT(bits, 1024u) << info.name;
        EXPECT_LT(bits, 64u * 1024 * 1024) << info.name;
        for (int i = 0; i < 100; ++i)
            unit->onLoad(Pc0 + (i % 7) * 4, DataA + i * 8,
                         static_cast<Word>(i), 8);
        EXPECT_EQ(unit->bitBudget(), bits)
            << info.name << ": budget is a property of the config";
    }
}

TEST(PredictorRegistry, SnapshotRestoreReproducesPredictionStream)
{
    // Drive each unit through a mixed warmup, snapshot, record the
    // next window of predictions, then restore the snapshot into a
    // FRESH unit and into a USED one (a unit that has already counted
    // loads of its own) and replay the window in both: the PredState
    // stream and the stats of the window must match exactly, and the
    // used unit's own stats must survive the restore. This is the
    // property lvp-serve's session resume is built on. It must also
    // hold with predictor faults armed: faults are keyed on (config
    // name, per-unit load counter) and the snapshot, a copy of the
    // whole unit, carries that counter, so a restored unit resumes
    // the exact fault stream.
    Rng rng(17);
    std::vector<Addr> pcs, addrs;
    std::vector<Word> vals;
    std::vector<bool> branches;
    for (int i = 0; i < 4000; ++i) {
        pcs.push_back(Pc0 + rng.below(64) * 4);
        addrs.push_back(DataA + rng.below(128) * 8);
        // Mix of constants, strides, and noise.
        vals.push_back(i % 3 == 0 ? 42
                       : i % 3 == 1 ? static_cast<Word>(i * 8)
                                    : rng.next());
        branches.push_back(rng.below(2) != 0);
    }
    auto drive = [&](ValuePredictor &u, int from, int to,
                     std::vector<PredState> *out) {
        for (int i = from; i < to; ++i) {
            PredState st = u.onLoad(pcs[i], addrs[i], vals[i], 8);
            u.onBranch(branches[i]);
            if (out)
                out->push_back(st);
        }
    };
    auto &ce = chaos::engine();
    for (bool armed : {false, true}) {
        if (armed)
            ce.arm({99, chaos::PredictorPoints, 64});
        const std::uint64_t faults0 = ce.injectedTotal();
        for (const auto &info : predictorRegistry()) {
            const std::string what =
                info.name + (armed ? " (chaos armed)" : "");
            auto warm = makePredictor(info.spec);
            drive(*warm, 0, 2000, nullptr);
            std::any snap = warm->snapshotState();
            const LvpStats before = warm->stats();
            std::vector<PredState> expected;
            drive(*warm, 2000, 4000, &expected);

            auto fresh = makePredictor(info.spec);
            fresh->restoreState(snap);
            std::vector<PredState> replayed;
            drive(*fresh, 2000, 4000, &replayed);
            EXPECT_EQ(expected, replayed) << what;
            LvpStats stitched = before;
            stitched += fresh->stats();
            EXPECT_EQ(stitched, warm->stats())
                << what << ": snapshot must exclude stats";

            auto used = makePredictor(info.spec);
            drive(*used, 0, 1000, nullptr);
            const LvpStats own = used->stats();
            ASSERT_GT(own.loads, 0u) << what;
            used->restoreState(snap);
            EXPECT_EQ(used->stats(), own)
                << what << ": restore must keep the restoring unit's stats";
            std::vector<PredState> resumed;
            drive(*used, 2000, 4000, &resumed);
            EXPECT_EQ(expected, resumed) << what << " (used unit)";
            LvpStats want = own;
            want += fresh->stats();
            EXPECT_EQ(used->stats(), want) << what << " (used unit)";
        }
        const std::uint64_t faults = ce.injectedTotal() - faults0;
        ce.disarm();
        if (armed) {
            EXPECT_GT(faults, 0u) << "predictor faults must actually fire";
        }
    }
}

TEST(PredictorRegistryDeathTest, RestoreRejectsAnotherUnitsSnapshot)
{
    auto lvp = makePredictor(findPredictor("lvp")->spec);
    auto stride = makePredictor(findPredictor("stride")->spec);
    const std::any snap = lvp->snapshotState();
    EXPECT_DEATH(stride->restoreState(snap), "wrong snapshot type");
}

/** LvpStats with only the given fields set, for exact comparisons. */
LvpStats
counted(std::initializer_list<std::uint64_t LvpStats::*> fields)
{
    LvpStats st;
    for (auto f : fields)
        st.*f += 1;
    return st;
}

TEST(OutcomeRule, EachCorrectnessAndGatePair)
{
    // The one rule every unit counts a load through: the confusion
    // matrix cell and exactly one outcome, compared on every field.
    using S = LvpStats;
    struct Case
    {
        bool wouldBeCorrect;
        bool predict;
        PredState state;
        LvpStats want;
    };
    const Case cases[] = {
        {true, true, PredState::Correct,
         counted({&S::loads, &S::correct, &S::actualPred,
                  &S::predIdentified})},
        {true, false, PredState::None,
         counted({&S::loads, &S::noPred, &S::actualPred})},
        {false, true, PredState::Incorrect,
         counted({&S::loads, &S::incorrect, &S::actualUnpred})},
        {false, false, PredState::None,
         counted({&S::loads, &S::noPred, &S::actualUnpred,
                  &S::unpredIdentified})},
    };
    for (const Case &c : cases) {
        LvpStats st;
        EXPECT_EQ(st.record(c.wouldBeCorrect, c.predict), c.state)
            << c.wouldBeCorrect << c.predict;
        EXPECT_EQ(st, c.want) << c.wouldBeCorrect << c.predict;
    }
}

TEST(OutcomeRule, CvuGateVerifiesInstallsAndCountsStaleHits)
{
    using S = LvpStats;
    constexpr std::uint32_t Idx = 3;
    Cvu cvu(4);
    cvu.insert(DataA, Idx, 8);

    // A Constant-class CVU hit is a verified constant...
    LvpStats st;
    EXPECT_EQ(cvuGate(st, cvu, LoadClass::Constant, true, DataA, Idx, 8,
                      true),
              PredState::Constant);
    EXPECT_EQ(st, counted({&S::loads, &S::constants, &S::actualPred,
                           &S::predIdentified}));
    // ...and a hit whose value is wrong is a stale hit (a coherence
    // violation no unit may produce; the gate still counts it).
    st = {};
    EXPECT_EQ(cvuGate(st, cvu, LoadClass::Constant, true, DataA, Idx, 8,
                      false),
              PredState::Constant);
    EXPECT_EQ(st, counted({&S::loads, &S::constants, &S::actualUnpred,
                           &S::cvuStaleHits}));

    // Outside the CVU's reach (not eligible, or Predict class) the
    // same load verifies against memory and installs nothing.
    st = {};
    EXPECT_EQ(cvuGate(st, cvu, LoadClass::Constant, false, DataA, Idx, 8,
                      true),
              PredState::Correct);
    EXPECT_EQ(cvuGate(st, cvu, LoadClass::Predict, true, DataA, Idx, 8,
                      true),
              PredState::Correct);
    LvpStats twice = counted({&S::loads, &S::correct, &S::actualPred,
                              &S::predIdentified});
    twice += twice;
    EXPECT_EQ(st, twice);
    EXPECT_EQ(cvu.size(), 1u);

    // A Constant-class miss demotes to a verified prediction: a
    // correct one is installed, a wrong one is not.
    Cvu empty(4);
    st = {};
    EXPECT_EQ(cvuGate(st, empty, LoadClass::Constant, true, DataA, Idx, 8,
                      false),
              PredState::Incorrect);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(cvuGate(st, empty, LoadClass::Constant, true, DataA, Idx, 8,
                      true),
              PredState::Correct);
    EXPECT_TRUE(empty.lookup(DataA, Idx));
    LvpStats want = counted({&S::loads, &S::incorrect, &S::actualUnpred});
    want += counted({&S::loads, &S::correct, &S::actualPred,
                     &S::predIdentified, &S::cvuInsertions});
    EXPECT_EQ(st, want);

    // A don't-predict load is not predicted at all.
    st = {};
    EXPECT_EQ(cvuGate(st, cvu, LoadClass::DontPredict, true, DataA, Idx,
                      8, true),
              PredState::None);
    EXPECT_EQ(st, counted({&S::loads, &S::noPred, &S::actualPred}));
}

/** @p base, then one copy of it per edit with only that edit made. */
template <typename Config, typename... Edits>
std::vector<Config>
oneFieldAtATime(const Config &base, Edits... edits)
{
    std::vector<Config> out{base};
    (
        [&] {
            Config cfg = base;
            edits(cfg);
            out.push_back(cfg);
        }(),
        ...);
    return out;
}

/** Each family's Simple spec, then one spec per config field with
 *  only that field changed (to another value the unit accepts). */
std::vector<PredictorSpec>
singleFieldVariants()
{
    std::vector<PredictorSpec> out;
    auto family = [&](auto base, auto... edits) {
        for (const auto &cfg : oneFieldAtATime(base, edits...))
            out.push_back(cfg);
    };
    family(
        LvpConfig::simple(), [](LvpConfig &c) { c.name = "renamed"; },
        [](LvpConfig &c) { c.lvptEntries *= 2; },
        [](LvpConfig &c) { c.historyDepth = 2; },
        [](LvpConfig &c) { c.lctEntries *= 2; },
        [](LvpConfig &c) { c.lctBits = 1; },
        [](LvpConfig &c) { c.cvuEntries *= 2; },
        [](LvpConfig &c) { c.cvuWays = 4; },
        [](LvpConfig &c) { c.perfectPrediction = true; },
        [](LvpConfig &c) { c.taggedLvpt = true; },
        [](LvpConfig &c) { c.bhrBits = 4; });
    family(
        StrideConfig::simple(), [](StrideConfig &c) { c.entries *= 2; },
        [](StrideConfig &c) { c.lctEntries *= 2; },
        [](StrideConfig &c) { c.lctBits = 1; },
        [](StrideConfig &c) { c.cvuEntries *= 2; },
        [](StrideConfig &c) { c.strideConfBits = 3; });
    family(
        FcmConfig::simple(), [](FcmConfig &c) { c.level1Entries *= 2; },
        [](FcmConfig &c) { c.level2Entries *= 2; },
        [](FcmConfig &c) { c.order = 3; },
        [](FcmConfig &c) { c.lctEntries *= 2; },
        [](FcmConfig &c) { c.lctBits = 1; });
    family(
        VtageConfig::simple(),
        [](VtageConfig &c) { c.baseEntries *= 2; },
        [](VtageConfig &c) { c.bankEntries *= 2; },
        [](VtageConfig &c) { c.banks = 3; },
        [](VtageConfig &c) { c.tagBits = 10; },
        [](VtageConfig &c) { c.confBits = 2; },
        [](VtageConfig &c) { c.minHistory = 3; },
        [](VtageConfig &c) { c.throttle = 64; });
    family(
        SkewStrideConfig::simple(),
        [](SkewStrideConfig &c) { c.entriesPerWay *= 2; },
        [](SkewStrideConfig &c) { c.ways = 2; },
        [](SkewStrideConfig &c) { c.tagBits = 9; },
        [](SkewStrideConfig &c) { c.confBits = 2; },
        [](SkewStrideConfig &c) { c.replaceThreshold = 0; });
    return out;
}

/** @p base, then one config per field (the machine's own @p edits,
 *  then its name and every nested memory-hierarchy and branch-
 *  predictor field) with only that field changed, to a value
 *  validate() and the cache geometry accept. */
template <typename Machine, typename... Edits>
std::vector<Machine>
singleFieldMachines(const Machine &base, Edits... edits)
{
    return oneFieldAtATime(
        base, edits..., [](Machine &c) { c.name = "renamed"; },
        [](Machine &c) { c.mem.l1.sizeBytes *= 2; },
        [](Machine &c) { c.mem.l1.assoc *= 2; },
        [](Machine &c) { c.mem.l1.lineBytes *= 2; },
        [](Machine &c) { c.mem.l2.sizeBytes *= 2; },
        [](Machine &c) { c.mem.l2.assoc *= 2; },
        [](Machine &c) { c.mem.l2.lineBytes *= 2; },
        [](Machine &c) { c.mem.banks *= 2; },
        [](Machine &c) { c.mem.l2Latency += 4; },
        [](Machine &c) { c.mem.memLatency += 20; },
        [](Machine &c) { c.bpred.bhtEntries /= 2; },
        [](Machine &c) { c.bpred.btbEntries /= 2; },
        [](Machine &c) { c.bpred.gshareBits = 4; });
}

/** A private in-memory cache with grep's program already built, so
 *  every later miss is a predictor or timing run. */
struct ColdCache
{
    ColdCache()
    {
        cache.setTraceDir("");
        rc.maxInstructions = 20000;
        cache.program(w, workloads::CodeGen::Ppc, 1);
    }

    sim::RunCache cache;
    const workloads::Workload &w = workloads::findWorkload("grep");
    sim::RunConfig rc;
};

TEST(PredictorSpec, EveryFieldChangesFingerprintAndCostsAMiss)
{
    const auto specs = singleFieldVariants();
    const std::set<PredictorSpec> distinct(specs.begin(), specs.end());
    EXPECT_EQ(distinct.size(), specs.size())
        << "two specs differing in one field compare equal";

    ColdCache c;
    auto s0 = c.cache.stats();
    auto first = c.cache.predictorOnlyMany(c.w, workloads::CodeGen::Ppc,
                                           1, specs, c.rc);
    auto s1 = c.cache.stats();
    EXPECT_EQ(s1.misses - s0.misses, specs.size());
    auto again = c.cache.predictorOnlyMany(c.w, workloads::CodeGen::Ppc,
                                           1, specs, c.rc);
    auto s2 = c.cache.stats();
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits - s1.hits, specs.size());
    EXPECT_EQ(first, again);
}

TEST(MachineConfig, EveryFieldCostsATimingMiss)
{
    using Ppc = uarch::Ppc620Config;
    using Alpha = uarch::AlphaConfig;
    const auto ppcs = singleFieldMachines(
        Ppc::base620(), [](Ppc &c) { c.fetchWidth = 2; },
        [](Ppc &c) { c.fetchBuffer *= 2; },
        [](Ppc &c) { c.dispatchWidth = 2; },
        [](Ppc &c) { c.completeWidth = 2; },
        [](Ppc &c) { c.rsPerUnit *= 2; },
        [](Ppc &c) { c.gprRename *= 2; },
        [](Ppc &c) { c.fprRename *= 2; },
        [](Ppc &c) { c.completionEntries *= 2; },
        [](Ppc &c) { c.numScfx = 1; }, [](Ppc &c) { c.numMcfx = 2; },
        [](Ppc &c) { c.numFpu = 2; }, [](Ppc &c) { c.numLsu = 2; },
        [](Ppc &c) { c.numBru = 2; },
        [](Ppc &c) { c.memOpsPerCycle = 2; },
        [](Ppc &c) { c.mshrs *= 2; },
        [](Ppc &c) { c.squashOnValueMispredict = true; });
    const auto alphas = singleFieldMachines(
        Alpha::base21164(), [](Alpha &c) { c.width = 2; },
        [](Alpha &c) { c.intPipes = 1; }, [](Alpha &c) { c.fpPipes = 1; },
        [](Alpha &c) { c.inflight *= 2; });

    // Every machine behind the Simple unit (so value-misprediction
    // recovery matters), and the base machine without one.
    std::vector<sim::RunCache::PpcVariant> ppcVariants{{ppcs[0], {}}};
    for (const auto &mc : ppcs)
        ppcVariants.push_back({mc, LvpConfig::simple()});
    std::vector<sim::RunCache::AlphaVariant> alphaVariants{
        {alphas[0], {}}};
    for (const auto &mc : alphas)
        alphaVariants.push_back({mc, LvpConfig::simple()});

    ColdCache c;
    const auto cg = workloads::CodeGen::Ppc;
    const std::size_t n = ppcVariants.size() + alphaVariants.size();
    auto s0 = c.cache.stats();
    auto ppcFirst = c.cache.ppc620Many(c.w, cg, 1, ppcVariants, c.rc);
    auto alphaFirst =
        c.cache.alpha21164Many(c.w, cg, 1, alphaVariants, c.rc);
    auto s1 = c.cache.stats();
    EXPECT_EQ(s1.misses - s0.misses, n);
    auto ppcAgain = c.cache.ppc620Many(c.w, cg, 1, ppcVariants, c.rc);
    auto alphaAgain =
        c.cache.alpha21164Many(c.w, cg, 1, alphaVariants, c.rc);
    auto s2 = c.cache.stats();
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits - s1.hits, n);
    for (std::size_t i = 0; i < ppcVariants.size(); ++i)
        EXPECT_EQ(ppcFirst[i].timing, ppcAgain[i].timing) << "620 " << i;
    for (std::size_t i = 0; i < alphaVariants.size(); ++i)
        EXPECT_EQ(alphaFirst[i].timing, alphaAgain[i].timing)
            << "21164 " << i;
}

TEST(PredictorSpec, OneSpecIsOneRunCacheEntryHoweverReached)
{
    // The registry's "lvp" contender is the paper's Simple unit: the
    // same spec through lvpOnly, predictorOnly and predictorOnlyMany
    // is computed once.
    ColdCache c;
    const auto cg = workloads::CodeGen::Ppc;
    auto s0 = c.cache.stats();
    auto viaLvp = c.cache.lvpOnly(c.w, cg, 1, LvpConfig::simple(), c.rc);
    auto s1 = c.cache.stats();
    auto viaRegistry =
        c.cache.predictorOnly(c.w, cg, 1, *findPredictor("lvp"), c.rc);
    auto viaSweep = c.cache.predictorOnlyMany(
        c.w, cg, 1, {LvpConfig::simple()}, c.rc);
    auto s2 = c.cache.stats();
    EXPECT_EQ(s1.misses - s0.misses, 1u);
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits - s1.hits, 2u);
    EXPECT_EQ(viaLvp, viaRegistry);
    EXPECT_EQ(viaLvp, viaSweep.front());

    // In front of a timing model too: the 620 behind the Simple preset
    // and behind the registry's "lvp" is one entry, and the unit sees
    // the stream it sees alone.
    const auto mc = uarch::Ppc620Config::base620();
    auto timedPreset =
        c.cache.ppc620(c.w, cg, 1, mc, LvpConfig::simple(), c.rc);
    auto s3 = c.cache.stats();
    auto timedRegistry =
        c.cache.ppc620(c.w, cg, 1, mc, findPredictor("lvp")->spec, c.rc);
    auto s4 = c.cache.stats();
    EXPECT_EQ(s3.misses - s2.misses, 1u);
    EXPECT_EQ(s4.misses, s3.misses);
    EXPECT_EQ(s4.hits - s3.hits, 1u);
    EXPECT_EQ(timedPreset.timing, timedRegistry.timing);
    EXPECT_EQ(timedPreset.lvp, viaLvp);
}

/** Counts the loads an annotator stamped Constant. */
struct ConstantCount : trace::TraceSink
{
    std::uint64_t n = 0;

    void
    consume(const trace::TraceRecord &rec) override
    {
        n += rec.pred == PredState::Constant;
    }
};

TEST(PredictorRegistry, OnlyCvuFamiliesStampConstant)
{
    // What each family hands a timing model, suite-wide at scale 1:
    // lvp and stride own a CVU and stamp Constant loads (which the
    // 21164 serves without a cache access); fcm, vtage and skewstride
    // have none and never do.
    const auto &reg = predictorRegistry();
    std::vector<std::uint64_t> constants(reg.size());
    for (const auto &w : workloads::allWorkloads()) {
        const auto prog = w.build(workloads::CodeGen::Ppc, 1);
        std::vector<ConstantCount> counts(reg.size());
        std::vector<std::unique_ptr<PredictorAnnotator>> annots;
        std::vector<trace::TraceSink *> tops;
        for (std::size_t i = 0; i < reg.size(); ++i) {
            annots.push_back(
                std::make_unique<PredictorAnnotator>(reg[i], counts[i]));
            tops.push_back(annots.back().get());
        }
        trace::MultiSink all(std::move(tops));
        sim::interpret(prog, all, sim::RunConfig{});
        for (std::size_t i = 0; i < reg.size(); ++i) {
            EXPECT_EQ(counts[i].n, annots[i]->unit().stats().constants)
                << reg[i].name << " on " << w.name;
            constants[i] += counts[i].n;
        }
    }
    for (std::size_t i = 0; i < reg.size(); ++i) {
        if (reg[i].name == "lvp" || reg[i].name == "stride")
            EXPECT_GT(constants[i], 0u) << reg[i].name;
        else
            EXPECT_EQ(constants[i], 0u) << reg[i].name;
    }
}

TEST(VtageUnit, SaturatesOntoConstantsAndStaysAccurate)
{
    VtageUnit u(VtageConfig::simple());
    for (int i = 0; i < 400; ++i)
        u.onLoad(Pc0, DataA, 7, 8);
    const auto &st = u.stats();
    EXPECT_GT(st.correct, 300u)
        << "confidence must saturate onto a constant quickly";
    EXPECT_EQ(st.incorrect, 0u);
    EXPECT_EQ(st.constants, 0u) << "no CVU: never claims constants";
    EXPECT_EQ(st.noPred + st.correct + st.incorrect, st.loads);
    EXPECT_EQ(st.actualPred + st.actualUnpred, st.loads);
}

TEST(VtageUnit, BranchHistorySeparatesContexts)
{
    // One static load whose value is determined by the preceding
    // branch outcome: last-value alone flip-flops, but a tagged bank
    // indexed with branch history can learn both contexts.
    VtageConfig cfg = VtageConfig::simple();
    cfg.throttle = 1; // keep the burst throttle out of this test
    VtageUnit withHistory(cfg);
    for (int i = 0; i < 3000; ++i) {
        bool taken = i % 2 == 0;
        withHistory.onBranch(taken);
        withHistory.onLoad(Pc0, DataA, taken ? 10 : 20, 8);
    }
    const auto &st = withHistory.stats();
    double rate = static_cast<double>(st.correct) /
                  static_cast<double>(st.loads);
    EXPECT_GT(rate, 0.8)
        << "tagged history banks must disambiguate the alternation";
}

TEST(VtageUnit, ThrottleSuppressesPredictionsAfterMisprediction)
{
    VtageConfig cfg = VtageConfig::simple();
    cfg.throttle = 64;
    VtageUnit u(cfg);
    // Saturate onto a constant, then betray it once.
    for (int i = 0; i < 200; ++i)
        u.onLoad(Pc0, DataA, 5, 8);
    ASSERT_GT(u.stats().correct, 0u);
    u.onLoad(Pc0, DataA, 999, 8); // issued mispredict: throttle arms
    const auto afterMisp = u.stats();
    // The next throttle-window loads must not issue predictions even
    // though other entries could be confident.
    for (int i = 0; i < 63; ++i)
        u.onLoad(Pc0 + 4, DataA, 5, 8);
    EXPECT_EQ(u.stats().correct, afterMisp.correct);
    EXPECT_EQ(u.stats().incorrect, afterMisp.incorrect);
    EXPECT_EQ(u.stats().noPred, afterMisp.noPred + 63);
}

TEST(VtageUnit, ThrottleCounterBitsFollowTheThrottle)
{
    // The since-mispredict counter counts up to throttle, so it is
    // bit_width(throttle) bits wide: 8 at the default of 128.
    VtageConfig cfg = VtageConfig::simple();
    ASSERT_EQ(cfg.throttle, 128u);
    const std::uint64_t base = VtageUnit(cfg).bitBudget();
    cfg.throttle = 1000;
    EXPECT_EQ(VtageUnit(cfg).bitBudget(), base + 2);
    cfg.throttle = 0;
    EXPECT_EQ(VtageUnit(cfg).bitBudget(), base - 8);
}

TEST(VtageConfigDeathTest, RejectsBadGeometry)
{
    VtageConfig cfg;
    cfg.baseEntries = 1000;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = VtageConfig::simple();
    cfg.bankEntries = 255;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = VtageConfig::simple();
    cfg.banks = 0;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = VtageConfig::simple();
    cfg.tagBits = 17;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    // Validation runs before the constructor's own table math, which
    // would shift 1u by 40 (undefined) before any check fired.
    cfg = VtageConfig::simple();
    cfg.tagBits = 40;
    EXPECT_EXIT(VtageUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
}

TEST(SkewStrideUnit, LocksOntoStridesAcrossAliasingLoads)
{
    SkewStrideUnit u(SkewStrideConfig::simple());
    // Three static loads with different strides, pc-spaced so a
    // direct-mapped table of 256 entries would alias two of them.
    const Addr pcs[] = {Pc0, Pc0 + 256 * 4, Pc0 + 512 * 4};
    const Word strides[] = {8, 24, 4096};
    Word bases[] = {0x1000, 0x2000, 0x3000};
    for (int i = 0; i < 500; ++i)
        for (int j = 0; j < 3; ++j) {
            u.onLoad(pcs[j], DataA + j * 64, bases[j], 8);
            bases[j] += strides[j];
        }
    const auto &st = u.stats();
    double rate = static_cast<double>(st.correct) /
                  static_cast<double>(st.loads);
    EXPECT_GT(rate, 0.9)
        << "skewed ways must keep aliasing strides apart";
    EXPECT_EQ(st.constants, 0u);
    EXPECT_EQ(st.noPred + st.correct + st.incorrect, st.loads);
}

TEST(SkewStrideUnit, ConfidenceSuppressesNoise)
{
    SkewStrideUnit u(SkewStrideConfig::simple());
    Rng rng(23);
    for (int i = 0; i < 3000; ++i)
        u.onLoad(Pc0, DataA, rng.next(), 8);
    const auto &st = u.stats();
    EXPECT_GT(st.noPred, 2500u)
        << "random values must not clear the confidence bar";
}

TEST(SkewStrideConfigDeathTest, RejectsBadGeometry)
{
    SkewStrideConfig cfg;
    cfg.entriesPerWay = 300;
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = SkewStrideConfig::simple();
    cfg.ways = 9;
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = SkewStrideConfig::simple();
    cfg.replaceThreshold = 8; // >= 2^confBits
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    // Validation runs before the constructor's own table math: a
    // log2 of an entry count above 2^31 never returned, and a 40-bit
    // tag mask shifted out of range.
    cfg = SkewStrideConfig::simple();
    cfg.entriesPerWay = 0x80000001u;
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = SkewStrideConfig::simple();
    cfg.tagBits = 40;
    EXPECT_EXIT(SkewStrideUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
}

TEST(StrideConfigDeathTest, RejectsNonPowerOfTwoTables)
{
    StrideConfig cfg = StrideConfig::simple();
    cfg.entries = 100;
    EXPECT_EXIT(StrideLvpUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
    cfg = StrideConfig::simple();
    cfg.lctEntries = 33;
    EXPECT_EXIT(StrideLvpUnit u(cfg), ::testing::ExitedWithCode(1),
                "fatal:");
}

TEST(LvpConfigDeathTest, RejectsNonPowerOfTwoTables)
{
    LvpConfig cfg = LvpConfig::simple();
    cfg.lvptEntries = 1000;
    EXPECT_EXIT(LvpUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
    cfg = LvpConfig::simple();
    cfg.lctEntries = 100;
    EXPECT_EXIT(LvpUnit u(cfg), ::testing::ExitedWithCode(1), "fatal:");
    // Set-associative CVU ablation: the set count (entries / ways)
    // must be a power of two, caught at config time.
    cfg = LvpConfig::simple();
    cfg.cvuEntries = 36;
    cfg.cvuWays = 4;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "fatal:");
}

} // namespace
} // namespace lvplib::core
