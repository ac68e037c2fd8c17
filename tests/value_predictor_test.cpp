/**
 * @file
 * The predictor championship's core contract: every contender sits
 * behind the core::ValuePredictor interface and its name-keyed
 * registry, carries an honest hardware bit budget, snapshots and
 * restores its full replayable state (chaos fault stream included),
 * and rejects impossible table geometries at construction time with a
 * clear fatal message. PredictorSpec fingerprints cover every config
 * field, and one spec is one run-cache entry however it is reached.
 * Also behavior tests for the two CVP-bred contenders (VTAGE and the
 * skewed-associative stride unit).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "core/config.hh"
#include "core/lvp_unit.hh"
#include "core/skew_stride_unit.hh"
#include "core/stride_unit.hh"
#include "core/value_predictor.hh"
#include "core/vtage_unit.hh"
#include "isa/program.hh"
#include "sim/run_cache.hh"
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
        unit->reset();
        EXPECT_EQ(unit->stats().loads, 0u) << info.name;
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
    // FRESH unit and replay the window: the PredState stream and the
    // stats of the window must match exactly. This is the property
    // lvp-serve's session resume is built on. It must also hold with
    // predictor faults armed: faults are keyed on (config name,
    // per-unit load counter) and the snapshot carries that counter,
    // so a restored unit resumes the exact fault stream.
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
        }
        const std::uint64_t faults = ce.injectedTotal() - faults0;
        ce.disarm();
        if (armed) {
            EXPECT_GT(faults, 0u) << "predictor faults must actually fire";
        }
    }
}

/** Each family's Simple spec, then one spec per config field with
 *  only that field changed (to another value the unit accepts). */
std::vector<PredictorSpec>
singleFieldVariants()
{
    std::vector<PredictorSpec> out;
    auto family = [&](auto base, auto... edits) {
        out.push_back(base);
        (
            [&] {
                auto cfg = base;
                edits(cfg);
                out.push_back(cfg);
            }(),
            ...);
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

/** A private in-memory cache with grep's program already built, so
 *  every later miss is a predictor run. */
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
    std::set<std::string> fps;
    for (const auto &spec : specs)
        fps.insert(fingerprint(spec));
    EXPECT_EQ(fps.size(), specs.size())
        << "two specs differing in one field share a fingerprint";

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
