/**
 * @file
 * The championship experiment end to end at a tiny scale: contender
 * selection (full registry, --predictors filtering, rejection of
 * unknown names and empty lists), leaderboard shape and ordering,
 * metric publication, and the CLI/env plumbing that carries the
 * filter and checks it before any experiment runs. Small enough to run
 * under TSan in CI.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/value_predictor.hh"
#include "obs/metrics.hh"
#include "sim/cli.hh"
#include "sim/extensions.hh"
#include "sim/run_cache.hh"
#include "workloads/workload.hh"

namespace lvplib::sim
{
namespace
{

ExperimentOptions
tiny()
{
    ExperimentOptions o;
    o.scale = 1;
    return o;
}

TEST(Championship, DefaultContendersAreTheWholeRegistry)
{
    auto preds = championshipPredictors(tiny());
    ASSERT_EQ(preds.size(), core::predictorRegistry().size());
    for (std::size_t i = 0; i < preds.size(); ++i)
        EXPECT_EQ(preds[i], &core::predictorRegistry()[i]);
}

TEST(Championship, FilterKeepsRegistryOrderAndSkipsEmptySegments)
{
    ExperimentOptions o = tiny();
    // Mention order is vtage first — selection must come back in
    // registry order regardless, with empty segments ignored.
    o.predictors = "vtage,,lvp,";
    auto preds = championshipPredictors(o);
    ASSERT_EQ(preds.size(), 2u);
    EXPECT_EQ(preds[0]->name, "lvp");
    EXPECT_EQ(preds[1]->name, "vtage");
}

TEST(ChampionshipDeathTest, UnknownContenderIsFatal)
{
    ExperimentOptions o = tiny();
    o.predictors = "lvp,oracle";
    EXPECT_EXIT(championshipPredictors(o),
                ::testing::ExitedWithCode(1), "fatal:");
}

TEST(Championship, BenchCliValidatesPredictorNames)
{
    std::string error;
    auto ok = parseBenchCli({"--predictors", "lvp,skewstride"}, error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ(ok->predictors, "lvp,skewstride");

    auto bad = parseBenchCli({"--predictors", "lvp,oracle"}, error);
    EXPECT_FALSE(bad.has_value());
    EXPECT_NE(error.find("oracle"), std::string::npos);

    auto empty = parseBenchCli({"--predictors", ","}, error);
    EXPECT_FALSE(empty.has_value());
}

TEST(ChampionshipDeathTest, ListNamingNoContenderIsFatal)
{
    ExperimentOptions o = tiny();
    o.predictors = ",";
    EXPECT_EXIT(championshipPredictors(o),
                ::testing::ExitedWithCode(1),
                "fatal:.*bad --predictors value ','");
}

TEST(Championship, BenchCliChecksPredictorsFromEnv)
{
    // LVPLIB_PREDICTORS is the default --predictors: a bad value is
    // rejected at parse time, before any experiment runs, with the
    // message the same --predictors value gets.
    std::string envError, flagError;
    for (const char *bad : {"bogus", ",", "lvp,oracle"}) {
        setenv("LVPLIB_PREDICTORS", bad, 1);
        EXPECT_FALSE(parseBenchCli({}, envError).has_value()) << bad;
        unsetenv("LVPLIB_PREDICTORS");
        EXPECT_FALSE(
            parseBenchCli({"--predictors", bad}, flagError).has_value());
        EXPECT_EQ(envError, flagError) << bad;
    }
    EXPECT_EQ(envError, "unknown predictor 'oracle'");

    setenv("LVPLIB_PREDICTORS", "fcm", 1);
    auto ok = parseBenchCli({}, envError);
    ASSERT_TRUE(ok.has_value()) << envError;
    EXPECT_EQ(ok->predictors, "fcm");

    // The flag overrides the environment, a bad environment too.
    setenv("LVPLIB_PREDICTORS", "bogus", 1);
    ok = parseBenchCli({"--predictors", "lvp"}, envError);
    ASSERT_TRUE(ok.has_value()) << envError;
    EXPECT_EQ(ok->predictors, "lvp");
    unsetenv("LVPLIB_PREDICTORS");
}

TEST(Championship, LeaderboardRanksAllContendersAndPublishesMetrics)
{
    // Two contenders keep this cheap enough for the TSan leg while
    // still exercising the fan-out sweep, ranking, and publication.
    ExperimentOptions o = tiny();
    o.predictors = "lvp,skewstride";
    const std::size_t before = obs::metrics().size();
    auto sections = championship(o);
    ASSERT_EQ(sections.size(), 1u);
    EXPECT_EQ(sections[0].table.rows(), 2u)
        << "one leaderboard row per contender";

    // 3 per-workload gauges + 5 aggregates per contender.
    const std::size_t expected =
        2 * (workloads::allWorkloads().size() * 3 + 5);
    EXPECT_GE(obs::metrics().size() - before, expected);
    for (const char *name : {"lvp", "skewstride"}) {
        EXPECT_GT(obs::metrics()
                      .gauge(obs::metricKey({"championship", name,
                                             "bits"}))
                      .value(),
                  0.0)
            << name;
        EXPECT_GT(obs::metrics()
                      .gauge(obs::metricKey(
                          {"championship", name, "grep", "good"}))
                      .value(),
                  0.0)
            << name << ": grep has predictable loads at any scale";
    }

    // Ranks must be a permutation of 1..N.
    double r1 = obs::metrics()
                    .gauge(obs::metricKey({"championship", "lvp",
                                           "rank"}))
                    .value();
    double r2 = obs::metrics()
                    .gauge(obs::metricKey({"championship", "skewstride",
                                           "rank"}))
                    .value();
    EXPECT_NE(r1, r2);
    EXPECT_GE(r1, 1.0);
    EXPECT_LE(r1, 2.0);
    EXPECT_GE(r2, 1.0);
    EXPECT_LE(r2, 2.0);
}

} // namespace
} // namespace lvplib::sim
