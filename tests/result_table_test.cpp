/**
 * @file
 * The result-table contract: one cell() prints a number in its
 * column's format and publishes it as "id.row.column"; text cells
 * publish nothing; a row key defaults to the sanitized label; the
 * summary row covers only the summarized columns. Suite-wide, every
 * gauge an experiment publishes starts with that experiment's id,
 * which perfbench's suite workload relies on to charge a golden drift
 * to the experiment that caused it.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sim/result_table.hh"
#include "sim/suite.hh"
#include "util/stats.hh"

namespace lvplib::sim
{
namespace
{

double
gauge(const std::string &name)
{
    return obs::metrics().gauge(name).value();
}

/** The whitespace-separated cells of printed line @p line (0 is the
 *  header, 1 the rule under it). */
std::vector<std::string>
printedCells(const ResultTable &t, std::size_t line)
{
    std::ostringstream os;
    t.table().print(os);
    std::istringstream lines(os.str());
    std::string text;
    for (std::size_t i = 0; i <= line; ++i)
        std::getline(lines, text);
    std::istringstream words(text);
    std::vector<std::string> cells;
    for (std::string w; words >> w;)
        cells.push_back(w);
    return cells;
}

TEST(ResultTable, CellPrintsInColumnFormatAndPublishesIdRowColumn)
{
    ResultTable t("rt_cell", {{"Benchmark"},
                              {"Pct", "pct", Fmt::Pct},
                              {"Pct2", "pct2", Fmt::Pct2},
                              {"IPC", "ipc", Fmt::Fixed3},
                              {"Instr.", "instr", Fmt::Count},
                              {"Entries", "entries", Fmt::Int},
                              {"Penalty", "penalty", Fmt::Int}});
    t.row("grep")
        .cell(12.34)
        .cell(1.234)
        .cell(1.2346)
        .cell(12345)
        .cell(1024)
        .cell(7, "7+refetch");
    EXPECT_EQ(printedCells(t, 2),
              (std::vector<std::string>{"grep", "12.3%", "1.23%", "1.235",
                                        "12.3K", "1024", "7+refetch"}));
    EXPECT_EQ(gauge("rt_cell.grep.pct"), 12.34);
    EXPECT_EQ(gauge("rt_cell.grep.pct2"), 1.234);
    EXPECT_EQ(gauge("rt_cell.grep.ipc"), 1.2346);
    EXPECT_EQ(gauge("rt_cell.grep.instr"), 12345.0);
    EXPECT_EQ(gauge("rt_cell.grep.entries"), 1024.0);
    EXPECT_EQ(gauge("rt_cell.grep.penalty"), 7.0)
        << "a cell shown as text still publishes its value";
}

TEST(ResultTable, TextCellPublishesNothing)
{
    const std::size_t before = obs::metrics().size();
    ResultTable t("rt_text",
                  {{"Benchmark"}, {"Description"}, {"FP d=1", "fp_d1"}});
    t.row("grep").text("pattern search").text("-");
    EXPECT_EQ(obs::metrics().size(), before);
    EXPECT_EQ(printedCells(t, 2),
              (std::vector<std::string>{"grep", "pattern", "search",
                                        "-"}));
    EXPECT_EQ(t.table().rows(), 1u);
}

TEST(ResultTable, RowKeyDefaultsToTheSanitizedLabel)
{
    ResultTable t("rt_key", {{"Machine/Config"}, {"LSU", "lsu"}});
    t.row("620+/Simple").cell(1.0);
    t.row("cc1-271").cell(2.0);
    t.row("Branch mispredict penalty", "mispredict_penalty").cell(3.0);
    EXPECT_EQ(gauge("rt_key.620plus_simple.lsu"), 1.0);
    EXPECT_EQ(gauge("rt_key.cc1_271.lsu"), 2.0);
    EXPECT_EQ(gauge("rt_key.mispredict_penalty.lsu"), 3.0);
    EXPECT_EQ(printedCells(t, 2)[0], "620+/Simple")
        << "the label prints unsanitized";
}

TEST(ResultTable, SummaryRowCoversOnlySummarizedColumns)
{
    ResultTable gm("rt_gm", {{"Benchmark"},
                             {"Base IPC", "base_ipc", Fmt::Fixed3},
                             {"Simple", "simple", Fmt::Fixed3, true},
                             {"Note"}});
    gm.row("a").cell(1.5).cell(2.0).text("x");
    gm.row("b").cell(0.5).cell(8.0).text("y");
    const std::size_t before = obs::metrics().size();
    gm.summary("GM", geomean);
    EXPECT_EQ(obs::metrics().size(), before + 1)
        << "only the summarized column publishes a GM";
    EXPECT_EQ(printedCells(gm, 4),
              (std::vector<std::string>{"GM", "-", "4.000", "-"}));
    EXPECT_DOUBLE_EQ(gauge("rt_gm.gm.simple"), 4.0);
    EXPECT_EQ(gm.table().rows(), 3u);

    ResultTable mn("rt_mean", {{"Benchmark"},
                               {"Good", "good", Fmt::Pct, true},
                               {"Cover", "cover", Fmt::Pct, true}});
    mn.row("a").cell(10.0).cell(30.0);
    mn.row("b").cell(20.0).text("-");
    mn.summary("MEAN", mean);
    EXPECT_EQ(printedCells(mn, 4),
              (std::vector<std::string>{"MEAN", "15.0%", "30.0%"}))
        << "a text cell contributes nothing to the mean";
    EXPECT_EQ(gauge("rt_mean.mean.good"), 15.0);
    EXPECT_EQ(gauge("rt_mean.mean.cover"), 30.0);
}

/** Names of the non-volatile instruments in the process registry. */
std::set<std::string>
fixedMetricNames()
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    obs::metrics().writeJson(w);
    std::string error;
    auto doc = obs::parseJson(os.str(), error);
    EXPECT_TRUE(doc.has_value()) << error;
    std::set<std::string> names;
    if (doc)
        for (const auto &[name, m] : doc->members())
            if (!m.find("volatile"))
                names.insert(name);
    return names;
}

TEST(ResultTableSuite, EveryExperimentPublishesUnderItsOwnId)
{
    ExperimentOptions opts;
    opts.scale = 1;
    for (const auto &spec : experimentSuite()) {
        const auto before = fixedMetricNames();
        auto sections = spec.run(opts);
        EXPECT_FALSE(sections.empty()) << spec.id;
        std::size_t fresh = 0;
        for (const auto &name : fixedMetricNames()) {
            if (before.count(name))
                continue;
            ++fresh;
            EXPECT_EQ(name.rfind(spec.id + ".", 0), 0u)
                << spec.id << " published " << name;
        }
        EXPECT_GT(fresh, 0u) << spec.id << " published nothing";
    }
}

} // namespace
} // namespace lvplib::sim
