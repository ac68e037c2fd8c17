/**
 * @file
 * Byte-identity proof for variant-group sharding, the one replay
 * sharding mechanism: a RunCache sweep cuts its missing variants into
 * contiguous groups, each replaying the shared trace once on the
 * shard pool, and must return EXACTLY the results of one serial
 * MultiSink pass — for every kind of variant a sweep holds (every
 * registry predictor, a branch-history LVP unit, the 620 and 620+
 * with and without LVP, the 21164 with and without LVP), at several
 * shard counts, every statistics field compared, on a cold cache.
 * With chaos predictor faults armed a sweep must not group at all and
 * still match the serial pass fault for fault.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/chaos.hh"
#include "core/config.hh"
#include "core/value_predictor.hh"
#include "sim/parallel.hh"
#include "sim/run_cache.hh"
#include "uarch/machine_config.hh"
#include "workloads/workload.hh"

namespace lvplib
{
namespace
{

namespace fs = std::filesystem;

/** The sweep entry point a test instance drives. */
enum class Sweep
{
    Predictor,
    Ppc620,
    Alpha21164,
};

const char *
sweepName(Sweep s)
{
    switch (s) {
    case Sweep::Predictor:
        return "pred";
    case Sweep::Ppc620:
        return "ppc620";
    case Sweep::Alpha21164:
        return "alpha21164";
    }
    return "?";
}

void
PrintTo(Sweep s, std::ostream *os)
{
    *os << sweepName(s);
}

/** Every registry predictor plus the branch-history LVP extension. */
std::vector<core::PredictorSpec>
predictorVariants()
{
    std::vector<core::PredictorSpec> specs;
    for (const auto &info : core::predictorRegistry())
        specs.push_back(info.spec);
    core::LvpConfig bhr = core::LvpConfig::simple();
    bhr.bhrBits = 4;
    specs.push_back(bhr);
    return specs;
}

std::vector<sim::RunCache::PpcVariant>
ppcVariants()
{
    std::vector<sim::RunCache::PpcVariant> vs;
    for (const auto &mc : {uarch::Ppc620Config::base620(),
                           uarch::Ppc620Config::plus620()}) {
        vs.push_back({mc, std::nullopt});
        vs.push_back({mc, core::LvpConfig::simple()});
    }
    return vs;
}

std::vector<sim::RunCache::AlphaVariant>
alphaVariants()
{
    return {{uarch::AlphaConfig::base21164(), std::nullopt},
            {uarch::AlphaConfig::base21164(), core::LvpConfig::simple()}};
}

/** Cold-cache RunCache sweeps in a trace directory of the test's own. */
class ShardReplay : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = cache().traceDir();
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name();
        std::replace(name.begin(), name.end(), '/', '_');
        dir_ = fs::path(::testing::TempDir()) / ("lvplib_" + name);
    }

    void
    TearDown() override
    {
        sim::setShardJobs(0);
        cache().clear();
        cache().setTraceDir(saved_);
        fs::remove_all(dir_);
    }

    static sim::RunCache &cache() { return sim::RunCache::instance(); }

    /** Forget every memo and trace, then pin the shard count. */
    void
    coldCache(unsigned shards)
    {
        sim::setShardJobs(shards);
        cache().clear();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        cache().setTraceDir(dir_.string());
    }

    /**
     * Run @p fn's sweep from a cold cache at @p shards; it must replay
     * the trace once per variant group, and only once while chaos is
     * armed.
     */
    template <typename Fn>
    auto
    sweepAt(unsigned shards, Fn fn)
    {
        coldCache(shards);
        auto before = cache().stats();
        auto out = fn();
        auto after = cache().stats();
        const std::size_t groups =
            chaos::engine().enabled()
                ? 1
                : std::min<std::size_t>(shards, out.size());
        EXPECT_EQ(after.misses - before.misses, out.size() + 2)
            << "each variant computed once (plus program and trace)";
        EXPECT_EQ(after.traceWrites - before.traceWrites, 1u);
        EXPECT_EQ(after.traceReplays - before.traceReplays, groups)
            << "one replay per variant group";
        return out;
    }

    fs::path dir_;
    std::string saved_;
};

class GroupSharding
    : public ShardReplay,
      public ::testing::WithParamInterface<std::tuple<Sweep, unsigned>>
{};

TEST_P(GroupSharding, MatchesSerialOnEveryStatsField)
{
    const auto [sweep, shards] = GetParam();
    const auto &w = workloads::findWorkload("grep");
    const sim::RunConfig rc;
    switch (sweep) {
    case Sweep::Predictor: {
        const auto specs = predictorVariants();
        auto run = [&] {
            return cache().predictorOnlyMany(w, workloads::CodeGen::Ppc,
                                             1, specs, rc);
        };
        auto serial = sweepAt(1, run);
        auto sharded = sweepAt(shards, run);
        ASSERT_EQ(serial.size(), specs.size());
        ASSERT_EQ(sharded.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(serial[i], sharded[i])
                << core::fingerprint(specs[i]);
        break;
    }
    case Sweep::Ppc620: {
        const auto variants = ppcVariants();
        auto run = [&] {
            return cache().ppc620Many(w, workloads::CodeGen::Ppc, 1,
                                      variants, rc);
        };
        auto serial = sweepAt(1, run);
        auto sharded = sweepAt(shards, run);
        ASSERT_EQ(serial.size(), variants.size());
        ASSERT_EQ(sharded.size(), variants.size());
        for (std::size_t i = 0; i < variants.size(); ++i) {
            EXPECT_EQ(serial[i].timing, sharded[i].timing) << i;
            EXPECT_EQ(serial[i].lvp, sharded[i].lvp) << i;
        }
        break;
    }
    case Sweep::Alpha21164: {
        const auto variants = alphaVariants();
        auto run = [&] {
            return cache().alpha21164Many(w, workloads::CodeGen::Alpha,
                                          1, variants, rc);
        };
        auto serial = sweepAt(1, run);
        auto sharded = sweepAt(shards, run);
        ASSERT_EQ(serial.size(), variants.size());
        ASSERT_EQ(sharded.size(), variants.size());
        for (std::size_t i = 0; i < variants.size(); ++i) {
            EXPECT_EQ(serial[i].timing, sharded[i].timing) << i;
            EXPECT_EQ(serial[i].lvp, sharded[i].lvp) << i;
        }
        break;
    }
    }
}

TEST_F(ShardReplay, ChaosArmedShardingMatchesSerial)
{
    // Predictor faults are keyed on (config name, per-unit load
    // counter), so a sweep is reproducible while they are armed. The
    // mask arms ONLY predictor points: TaskThrow would fail shard-pool
    // tasks and TraceReadFlip is exercised by batch_replay_test.
    const auto &w = workloads::findWorkload("grep");
    const sim::RunConfig rc;
    const auto specs = predictorVariants();
    auto run = [&] {
        return cache().predictorOnlyMany(w, workloads::CodeGen::Ppc, 1,
                                         specs, rc);
    };
    auto &ce = chaos::engine();
    std::vector<core::LvpStats> serial;
    std::vector<core::LvpStats> sharded;
    std::uint64_t serialFaults = 0;
    std::uint64_t shardedFaults = 0;
    ce.arm({99, chaos::PredictorPoints, 512});
    try {
        const std::uint64_t base = ce.injectedTotal();
        serial = sweepAt(1, run);
        const std::uint64_t mid = ce.injectedTotal();
        sharded = sweepAt(5, run);
        serialFaults = mid - base;
        shardedFaults = ce.injectedTotal() - mid;
    } catch (...) {
        ce.disarm();
        throw;
    }
    ce.disarm();
    EXPECT_GT(serialFaults, 0u) << "predictor faults must actually fire";
    EXPECT_EQ(shardedFaults, serialFaults)
        << "the sharded sweep sees the serial fault stream again";
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(sharded.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(serial[i], sharded[i]) << core::fingerprint(specs[i]);
}

INSTANTIATE_TEST_SUITE_P(
    ShardReplay, GroupSharding,
    ::testing::Combine(::testing::Values(Sweep::Predictor, Sweep::Ppc620,
                                         Sweep::Alpha21164),
                       ::testing::Values(2u, 3u, 7u)),
    [](const ::testing::TestParamInfo<GroupSharding::ParamType> &p) {
        return std::string(sweepName(std::get<0>(p.param))) +
               "_shards" + std::to_string(std::get<1>(p.param));
    });

} // namespace
} // namespace lvplib
