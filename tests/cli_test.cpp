/**
 * @file
 * Tests for the lvpsim command-line front end: option parsing,
 * validation errors, and end-to-end execution into a string stream.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/value_predictor.hh"
#include "sim/cli.hh"
#include "sim/suite.hh"

namespace lvplib::sim
{
namespace
{

std::optional<CliOptions>
parse(std::initializer_list<const char *> args, std::string *err = nullptr)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    std::string e;
    auto r = parseCli(v, e);
    if (err)
        *err = e;
    return r;
}

TEST(Cli, Defaults)
{
    auto o = parse({});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->benchmark, "grep");
    EXPECT_EQ(o->machine, CliOptions::Machine::Ppc620);
    EXPECT_EQ(o->lvpConfig, "simple");
    EXPECT_EQ(o->scale, 2u);
    EXPECT_FALSE(o->help);
}

TEST(Cli, ParsesEveryOption)
{
    auto o = parse({"--bench", "compress", "--machine", "21164",
                    "--lvp", "limit", "--scale", "5", "--codegen",
                    "alpha", "--locality"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->benchmark, "compress");
    EXPECT_EQ(o->machine, CliOptions::Machine::Alpha21164);
    EXPECT_EQ(o->lvpConfig, "limit");
    EXPECT_EQ(o->scale, 5u);
    EXPECT_EQ(o->codegen, "alpha");
    EXPECT_TRUE(o->profileLocality);
}

TEST(Cli, MachineAliases)
{
    EXPECT_EQ(parse({"--machine", "620+"})->machine,
              CliOptions::Machine::Ppc620Plus);
    EXPECT_EQ(parse({"--machine", "620plus"})->machine,
              CliOptions::Machine::Ppc620Plus);
    EXPECT_EQ(parse({"--machine", "alpha"})->machine,
              CliOptions::Machine::Alpha21164);
    EXPECT_EQ(parse({"--machine", "none"})->machine,
              CliOptions::Machine::None);
}

TEST(Cli, RejectsBadInput)
{
    std::string err;
    EXPECT_FALSE(parse({"--machine", "586"}, &err));
    EXPECT_NE(err.find("unknown machine"), std::string::npos);
    EXPECT_FALSE(parse({"--lvp", "psychic"}, &err));
    EXPECT_FALSE(parse({"--scale", "0"}, &err));
    // Strict parse: no trailing text, no sign, no truncation.
    EXPECT_FALSE(parse({"--scale", "1x"}, &err));
    EXPECT_NE(err.find("bad scale '1x'"), std::string::npos);
    EXPECT_FALSE(parse({"--scale", "99999999999"}, &err));
    EXPECT_NE(err.find("bad scale '99999999999'"), std::string::npos);
    EXPECT_FALSE(parse({"--scale", "-1"}, &err));
    EXPECT_FALSE(parse({"--scale", "+2"}, &err));
    EXPECT_FALSE(parse({"--scale", " 2"}, &err));
    EXPECT_FALSE(parse({"--scale"}, &err));
    EXPECT_NE(err.find("needs a value"), std::string::npos);
    EXPECT_FALSE(parse({"--frobnicate"}, &err));
    EXPECT_FALSE(parse({"--codegen", "mips"}, &err));
}

TEST(Cli, HelpAndListShortCircuit)
{
    std::ostringstream os;
    CliOptions o;
    o.help = true;
    EXPECT_EQ(runCli(o, os), 0);
    EXPECT_NE(os.str().find("usage:"), std::string::npos);

    std::ostringstream os2;
    CliOptions o2;
    o2.listBenchmarks = true;
    EXPECT_EQ(runCli(o2, os2), 0);
    EXPECT_NE(os2.str().find("grep"), std::string::npos);
    EXPECT_NE(os2.str().find("tomcatv"), std::string::npos);
}

TEST(Cli, RunsBenchmarkEndToEnd)
{
    CliOptions o;
    o.benchmark = "grep";
    o.scale = 1;
    o.profileLocality = true;
    std::ostringstream os;
    EXPECT_EQ(runCli(o, os), 0);
    std::string out = os.str();
    EXPECT_NE(out.find("dynamic instructions"), std::string::npos);
    EXPECT_NE(out.find("value locality"), std::string::npos);
    EXPECT_NE(out.find("speedup"), std::string::npos);
}

TEST(Cli, RunsAlphaAndNoneMachines)
{
    CliOptions o;
    o.benchmark = "mpeg";
    o.scale = 1;
    o.machine = CliOptions::Machine::Alpha21164;
    std::ostringstream os;
    EXPECT_EQ(runCli(o, os), 0);
    EXPECT_NE(os.str().find("21164"), std::string::npos);

    o.machine = CliOptions::Machine::None;
    std::ostringstream os2;
    EXPECT_EQ(runCli(o, os2), 0);
    EXPECT_EQ(os2.str().find("cycles"), std::string::npos)
        << "machine none must skip timing";
}

TEST(Cli, ProgramThatRunsOffItsCodeIsAnError)
{
    // No HALT: control falls off the end of the code. An empty file
    // (or one holding only a comment) has no valid entry at all.
    // Both are reported on the stream with exit code 1, not a crash.
    const std::string dir = ::testing::TempDir();
    const struct
    {
        const char *file;
        const char *text;
        const char *message;
    } cases[] = {
        {"lvplib_cli_nohalt.s", "addi r3, r0, 1\n",
         "error: control transfer to invalid pc 0x10004 from 0x10000"},
        {"lvplib_cli_empty.s", "", "error: run entered at invalid pc"},
        {"lvplib_cli_comment.s", "# nothing here\n",
         "error: run entered at invalid pc"},
    };
    for (const auto &c : cases) {
        std::string path = dir + "/" + c.file;
        std::ofstream(path) << c.text;
        CliOptions o;
        o.asmFile = path;
        std::ostringstream os;
        EXPECT_EQ(runCli(o, os), 1) << c.file;
        EXPECT_NE(os.str().find(c.message), std::string::npos)
            << c.file << ": " << os.str();
        std::filesystem::remove(path);
    }
}

std::optional<BenchOptions>
parseBench(std::initializer_list<const char *> args,
           std::string *err = nullptr)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    std::string e;
    auto r = parseBenchCli(v, e);
    if (err)
        *err = e;
    return r;
}

TEST(BenchCli, Defaults)
{
    auto o = parseBench({});
    ASSERT_TRUE(o);
    EXPECT_TRUE(o->filters.empty());
    EXPECT_FALSE(o->jobs.has_value());
    EXPECT_FALSE(o->scale.has_value());
    EXPECT_FALSE(o->json);
    EXPECT_FALSE(o->list);
    EXPECT_TRUE(o->traceCache);
    EXPECT_FALSE(o->prune);
    EXPECT_FALSE(o->help);
    EXPECT_TRUE(o->metricsOut.empty());
    EXPECT_TRUE(o->timelineOut.empty());
    EXPECT_TRUE(o->checkBaseline.empty());
    EXPECT_DOUBLE_EQ(o->relTol, 1e-6);
    EXPECT_FALSE(o->chaosSeed.has_value());
    EXPECT_EQ(o->chaosFaults, 1000u);
    EXPECT_EQ(o->retries, 2u);
    EXPECT_EQ(o->watchdogMs, 0u);
}

TEST(BenchCli, ParsesEveryOption)
{
    auto o = parseBench({"--filter", "fig1", "--filter", "table6",
                         "--jobs", "8", "--scale", "3", "--json",
                         "--no-trace-cache", "--prune",
                         "--metrics-out", "m.json", "--timeline-out",
                         "t.json", "--check", "golden.json",
                         "--rel-tol", "0.01"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->filters,
              (std::vector<std::string>{"fig1", "table6"}));
    EXPECT_EQ(o->jobs, 8u);
    EXPECT_EQ(o->scale, 3u);
    EXPECT_TRUE(o->json);
    EXPECT_FALSE(o->traceCache);
    EXPECT_TRUE(o->prune);
    EXPECT_EQ(o->metricsOut, "m.json");
    EXPECT_EQ(o->timelineOut, "t.json");
    EXPECT_EQ(o->checkBaseline, "golden.json");
    EXPECT_DOUBLE_EQ(o->relTol, 0.01);
}

TEST(BenchCli, ListHelpAndVerify)
{
    EXPECT_TRUE(parseBench({"--list"})->list);
    EXPECT_TRUE(parseBench({"--help"})->help);
    EXPECT_TRUE(parseBench({"-h"})->help);
    auto o = parseBench({"--verify-trace-cache", "/tmp/traces"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->verifyDir, "/tmp/traces");
    EXPECT_FALSE(o->prune);
    o = parseBench({"--verify-trace-cache", "/tmp/traces", "--prune"});
    ASSERT_TRUE(o);
    EXPECT_TRUE(o->prune);
}

TEST(BenchCli, ChaosRetriesAndWatchdog)
{
    auto o = parseBench({"--chaos", "7"});
    ASSERT_TRUE(o);
    ASSERT_TRUE(o->chaosSeed.has_value());
    EXPECT_EQ(*o->chaosSeed, 7u);
    EXPECT_EQ(o->chaosFaults, 1000u);

    o = parseBench({"--chaos", "12,500"});
    ASSERT_TRUE(o);
    EXPECT_EQ(*o->chaosSeed, 12u);
    EXPECT_EQ(o->chaosFaults, 500u);

    o = parseBench({"--retries", "0", "--watchdog-ms", "60000"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->retries, 0u);
    EXPECT_EQ(o->watchdogMs, 60000u);

    std::string err;
    EXPECT_FALSE(parseBench({"--chaos"}, &err));
    EXPECT_NE(err.find("--chaos needs a value"), std::string::npos);
    EXPECT_FALSE(parseBench({"--chaos", "abc"}, &err));
    EXPECT_NE(err.find("bad --chaos value 'abc'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--chaos", "1,"}, &err));
    EXPECT_FALSE(parseBench({"--chaos", "1,0"}, &err));
    EXPECT_FALSE(parseBench({"--chaos", "1,x"}, &err));
    // A negative quota must not wrap to 2^64 - 5.
    EXPECT_FALSE(parseBench({"--chaos", "1,-5"}, &err));
    EXPECT_NE(err.find("bad --chaos value '1,-5'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--chaos", "-1"}, &err));
    EXPECT_FALSE(parseBench({"--chaos", "+1"}, &err));
    EXPECT_FALSE(parseBench({"--chaos", ",5"}, &err));
    EXPECT_FALSE(parseBench({"--retries", "9"}, &err));
    EXPECT_NE(err.find("bad --retries value '9'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--retries", "abc"}, &err));
    EXPECT_FALSE(parseBench({"--retries", "-1"}, &err));
    EXPECT_FALSE(parseBench({"--watchdog-ms", "5s"}, &err));
    EXPECT_NE(err.find("bad --watchdog-ms value '5s'"),
              std::string::npos);
    EXPECT_FALSE(parseBench({"--watchdog-ms", "-1"}, &err));
    EXPECT_NE(err.find("bad --watchdog-ms value '-1'"),
              std::string::npos);
    EXPECT_FALSE(parseBench({"--watchdog-ms", ""}, &err));
}

TEST(BenchCli, UnknownOptionNamesTheToken)
{
    std::string err;
    EXPECT_FALSE(parseBench({"--bogus"}, &err));
    EXPECT_NE(err.find("unknown option '--bogus'"),
              std::string::npos);
    EXPECT_FALSE(parseBench({"stray"}, &err));
    EXPECT_NE(err.find("'stray'"), std::string::npos);
    // The flag of the deleted trace migration is unknown too. It is
    // spelled in two pieces so a search for the deleted flag finds no
    // live use of it.
    EXPECT_FALSE(parseBench({"--" "migrate"}, &err));
    EXPECT_NE(err.find("unknown option '--" "migrate'"),
              std::string::npos);
    // So is the deleted replay-group width (one scheduler, --jobs).
    EXPECT_FALSE(parseBench({"--" "shards", "4"}, &err));
    EXPECT_NE(err.find("unknown option '--" "shards'"),
              std::string::npos);
}

TEST(BenchCli, MissingValueNamesTheFlag)
{
    std::string err;
    EXPECT_FALSE(parseBench({"--filter"}, &err));
    EXPECT_NE(err.find("--filter needs a value"), std::string::npos);
    EXPECT_FALSE(parseBench({"--jobs"}, &err));
    EXPECT_NE(err.find("--jobs needs a value"), std::string::npos);
    EXPECT_FALSE(parseBench({"--metrics-out"}, &err));
    EXPECT_NE(err.find("--metrics-out needs a value"),
              std::string::npos);
    EXPECT_FALSE(parseBench({"--check"}, &err));
    EXPECT_NE(err.find("--check needs a value"), std::string::npos);
    EXPECT_FALSE(parseBench({"--rel-tol"}, &err));
    EXPECT_NE(err.find("--rel-tol needs a value"), std::string::npos);
}

TEST(BenchCli, MalformedValuesNameTheToken)
{
    std::string err;
    EXPECT_FALSE(parseBench({"--jobs", "abc"}, &err));
    EXPECT_NE(err.find("bad --jobs value 'abc'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--jobs", "0"}, &err));
    EXPECT_NE(err.find("'0'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--jobs", "9999"}, &err));
    // strtoul accepted a sign and leading spaces; the strict parser
    // takes digits only.
    EXPECT_FALSE(parseBench({"--jobs", "+4"}, &err));
    EXPECT_NE(err.find("bad --jobs value '+4'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--jobs", " 4"}, &err));
    EXPECT_NE(err.find("bad --jobs value ' 4'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--jobs", "-1"}, &err));
    EXPECT_FALSE(parseBench({"--jobs", ""}, &err));
    EXPECT_FALSE(parseBench({"--scale", "0"}, &err));
    EXPECT_NE(err.find("bad --scale value '0'"), std::string::npos);
    EXPECT_FALSE(parseBench({"--scale", "12x"}, &err));
    EXPECT_FALSE(parseBench({"--scale", "99999999999"}, &err));
    EXPECT_FALSE(parseBench({"--rel-tol", "nope"}, &err));
    EXPECT_NE(err.find("bad --rel-tol value 'nope'"),
              std::string::npos);
    EXPECT_FALSE(parseBench({"--rel-tol", "-0.5"}, &err));
}

TEST(BenchCli, ListEnumeratesExperimentsAndPredictors)
{
    // lvpbench --list prints this: one tab-separated line per
    // experiment (id, binary, summary — unchanged for script
    // compatibility), then one per registered predictor.
    std::ostringstream os;
    writeSuiteList(os);
    const std::string out = os.str();
    for (const auto &spec : experimentSuite()) {
        EXPECT_NE(out.find(spec.id + "\t" + spec.binary + "\t"),
                  std::string::npos)
            << spec.id;
        EXPECT_NE(out.find(spec.summary), std::string::npos) << spec.id;
    }
    for (const auto &info : core::predictorRegistry()) {
        EXPECT_NE(out.find(std::string("predictor\t") + info.name +
                           "\t"),
                  std::string::npos)
            << info.name;
        EXPECT_NE(out.find(info.summary), std::string::npos)
            << info.name;
    }
}

TEST(BenchCli, UsageMentionsEveryFlag)
{
    std::string u = benchUsage();
    for (const char *flag :
         {"--filter", "--jobs", "--scale", "--json",
          "--list",
          "--no-trace-cache", "--prune", "--verify-trace-cache", "--metrics-out", "--timeline-out",
          "--check", "--rel-tol", "--chaos", "--retries",
          "--watchdog-ms"})
        EXPECT_NE(u.find(flag), std::string::npos) << flag;
}

TEST(Cli, EveryPredictorRunsOnThe21164)
{
    // --lvp takes a Table 2 preset or any registry name, and every one
    // drives the timing model: a baseline line, then a speedup line.
    std::vector<std::string> names = {"simple", "constant", "limit",
                                      "perfect"};
    for (const auto &info : core::predictorRegistry())
        names.push_back(info.name);
    for (const auto &name : names) {
        auto o = parse({"--bench", "grep", "--scale", "1", "--machine",
                        "21164", "--lvp", name.c_str()});
        ASSERT_TRUE(o) << name;
        std::ostringstream os;
        EXPECT_EQ(runCli(*o, os), 0) << name;
        EXPECT_NE(os.str().find("baseline"), std::string::npos) << name;
        EXPECT_NE(os.str().find("speedup"), std::string::npos) << name;
    }
    auto none = parse({"--bench", "grep", "--scale", "1", "--machine",
                       "21164", "--lvp", "none"});
    ASSERT_TRUE(none);
    std::ostringstream os;
    EXPECT_EQ(runCli(*none, os), 0);
    EXPECT_NE(os.str().find("baseline"), std::string::npos);
    EXPECT_EQ(os.str().find("speedup"), std::string::npos);
}

TEST(Cli, CodegenDefaultsToTheMachines)
{
    // Every experiment times the 21164 on Alpha code and the 620s on
    // PPC code; lvpsim does the same unless --codegen says otherwise.
    auto run = [](std::initializer_list<const char *> args) {
        auto o = parse(args);
        EXPECT_TRUE(o);
        std::ostringstream os;
        EXPECT_EQ(runCli(*o, os), 0);
        return os.str();
    };
    auto baseline = [](const std::string &out) {
        auto at = out.find(" baseline: ");
        EXPECT_NE(at, std::string::npos) << out;
        return out.substr(at, out.find('\n', at) - at);
    };
    const auto alphaDefault = run({"--bench", "grep", "--scale", "1",
                                   "--machine", "21164", "--lvp",
                                   "none"});
    EXPECT_NE(alphaDefault.find("codegen alpha"), std::string::npos)
        << alphaDefault;
    const auto alphaExplicit =
        run({"--bench", "grep", "--scale", "1", "--machine", "21164",
             "--lvp", "none", "--codegen", "alpha"});
    EXPECT_EQ(baseline(alphaDefault), baseline(alphaExplicit));

    // An explicit --codegen still wins.
    const auto ppcOn21164 =
        run({"--bench", "grep", "--scale", "1", "--machine", "21164",
             "--lvp", "none", "--codegen", "ppc"});
    EXPECT_NE(ppcOn21164.find("codegen ppc"), std::string::npos);
    EXPECT_NE(baseline(ppcOn21164), baseline(alphaDefault))
        << "PPC code must time differently on the 21164";

    for (const char *machine : {"620", "620+", "none"}) {
        const auto out = run({"--bench", "grep", "--scale", "1",
                              "--machine", machine, "--lvp", "none"});
        EXPECT_NE(out.find("codegen ppc"), std::string::npos) << machine;
    }
}

} // namespace
} // namespace lvplib::sim
