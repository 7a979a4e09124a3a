/**
 * @file
 * The shared tli_* command-line parser, including the execution-engine
 * flags (--jobs, --cache-dir, --no-cache) every sweep/run tool
 * accepts, and the engine a parsed option set materializes into.
 */

#include "options.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/tuning_io.h"
#include "magpie/tuning.h"

namespace tli::tools {
namespace {

/** Feed a whole argv-style list; every flag must be recognized and
 *  the accumulated scenario must finalize cleanly. */
ScenarioOptions
parseAll(const std::vector<std::string> &args)
{
    ScenarioOptions opts;
    for (const std::string &arg : args)
        EXPECT_TRUE(opts.parseOne(arg.c_str())) << arg;
    EXPECT_EQ(opts.finalize(), "");
    return opts;
}

TEST(FlagValue, MatchesPrefixOnly)
{
    EXPECT_STREQ(flagValue("--app=water", "--app="), "water");
    EXPECT_STREQ(flagValue("--app=", "--app="), "");
    EXPECT_EQ(flagValue("--apple=1", "--app="), nullptr);
    EXPECT_EQ(flagValue("app=water", "--app="), nullptr);
}

TEST(ScenarioOptionsParse, Defaults)
{
    ScenarioOptions opts;
    EXPECT_EQ(opts.app, "water");
    EXPECT_EQ(opts.variant, "opt");
    EXPECT_EQ(opts.jobs, 0); // 0 = hardware concurrency
    EXPECT_TRUE(opts.cacheDir.empty());
    EXPECT_FALSE(opts.noCache);
    EXPECT_FALSE(opts.cacheEnabled());
}

TEST(ScenarioOptionsParse, ScenarioFlags)
{
    ScenarioOptions opts = parseAll(
        {"--app=fft", "--variant=unopt", "--clusters=3", "--procs=4",
         "--bw=0.95", "--lat=12.5", "--jitter=0.25",
         "--wan-topology=ring", "--scale=0.5", "--seed=7",
         "--all-myrinet"});
    EXPECT_EQ(opts.app, "fft");
    EXPECT_EQ(opts.variant, "unopt");
    EXPECT_EQ(opts.scenario.clusters, 3);
    EXPECT_EQ(opts.scenario.procsPerCluster, 4);
    EXPECT_EQ(opts.scenario.wanBandwidthMBs, 0.95);
    EXPECT_EQ(opts.scenario.wanLatencyMs, 12.5);
    EXPECT_EQ(opts.scenario.wanJitterFraction, 0.25);
    EXPECT_EQ(opts.scenario.wanShape, net::WanShape::ring());
    EXPECT_EQ(opts.scenario.problemScale, 0.5);
    EXPECT_EQ(opts.scenario.seed, 7u);
    EXPECT_TRUE(opts.scenario.allMyrinet);
}

TEST(ScenarioOptionsParse, LongAliasesMatchShortForms)
{
    ScenarioOptions a = parseAll({"--bw=1.5", "--lat=3", "--jitter=0.1"});
    ScenarioOptions b = parseAll(
        {"--wan-bw=1.5", "--wan-lat=3", "--wan-jitter=0.1"});
    EXPECT_TRUE(a.scenario == b.scenario);
}

TEST(ScenarioOptionsParse, ImpairmentFlags)
{
    ScenarioOptions opts = parseAll(
        {"--wan-loss=0.02", "--wan-outage-start=1.5",
         "--wan-outage-duration=0.25", "--wan-outage-period=3",
         "--wan-outage-queue"});
    EXPECT_EQ(opts.scenario.wanLossRate, 0.02);
    EXPECT_EQ(opts.scenario.wanOutageStartS, 1.5);
    EXPECT_EQ(opts.scenario.wanOutageDurationS, 0.25);
    EXPECT_EQ(opts.scenario.wanOutagePeriodS, 3.0);
    EXPECT_TRUE(opts.scenario.wanOutageQueue);
    EXPECT_TRUE(opts.scenario.impaired());
}

TEST(ScenarioOptionsParse, FinalizeReportsInvalidScenario)
{
    ScenarioOptions opts;
    EXPECT_TRUE(opts.parseOne("--wan-loss=1.5"));
    std::string err = opts.finalize();
    EXPECT_NE(err.find("wan-loss"), std::string::npos) << err;

    ScenarioOptions outage;
    EXPECT_TRUE(outage.parseOne("--wan-outage-duration=5"));
    EXPECT_TRUE(outage.parseOne("--wan-outage-period=1"));
    EXPECT_FALSE(outage.finalize().empty());
}

TEST(ScenarioOptionsParse, ExecFlags)
{
    ScenarioOptions opts = parseAll(
        {"--jobs=8", "--cache-dir=/tmp/tli-cache"});
    EXPECT_EQ(opts.jobs, 8);
    EXPECT_EQ(opts.cacheDir, "/tmp/tli-cache");
    EXPECT_TRUE(opts.cacheEnabled());

    // --no-cache wins over --cache-dir, whatever the flag order.
    EXPECT_TRUE(opts.parseOne("--no-cache"));
    EXPECT_TRUE(opts.noCache);
    EXPECT_FALSE(opts.cacheEnabled());
}

TEST(ScenarioOptionsParse, ObservabilityFlags)
{
    ScenarioOptions opts = parseAll(
        {"--trace=/tmp/t.json", "--json=/tmp/r.json"});
    EXPECT_EQ(opts.tracePath, "/tmp/t.json");
    EXPECT_EQ(opts.jsonPath, "/tmp/r.json");
}

TEST(ScenarioOptionsParse, RejectsUnknownFlags)
{
    ScenarioOptions opts;
    EXPECT_FALSE(opts.parseOne("--jobs"));  // missing =N
    EXPECT_FALSE(opts.parseOne("--cache")); // not a flag
    EXPECT_FALSE(opts.parseOne("--wan-topology=bus"));
    EXPECT_FALSE(opts.parseOne("--wan-dims=4xx2"));
    EXPECT_FALSE(opts.parseOne("--wan-dims="));
    EXPECT_FALSE(opts.parseOne("positional"));
    // Numeric values must parse whole: no silent 0 or truncation.
    EXPECT_FALSE(opts.parseOne("--clusters=abc"));
    EXPECT_FALSE(opts.parseOne("--bw=6x"));
    EXPECT_FALSE(opts.parseOne("--jobs="));
    EXPECT_FALSE(opts.parseOne("--seed=-1"));
    EXPECT_FALSE(opts.parseOne("--clusters=99999999999"));
    // One sequential engine: there is no --sim-threads flag.
    EXPECT_FALSE(opts.parseOne("--sim-threads=4"));
    // None of the rejects reached the scenario.
    EXPECT_EQ(opts.finalize(), "");
    EXPECT_EQ(opts.scenario.clusters, 4);
    EXPECT_EQ(opts.scenario.wanBandwidthMBs, 6.0);
    EXPECT_EQ(opts.jobs, 0);

    // Tool-specific grids (--bws=, --lats=, --elems=) obey the same
    // rule and leave the default untouched on a reject.
    std::vector<double> grid = {6.3};
    EXPECT_FALSE(readNumberList("--bws=1,x", "1,x", grid));
    EXPECT_EQ(grid, std::vector<double>{6.3});
    EXPECT_TRUE(readNumberList("--bws=1,0.5", "1,0.5", grid));
    EXPECT_EQ(grid, (std::vector<double>{1.0, 0.5}));
}

TEST(ScenarioOptionsParse, GridListsRejectValuesTheLinkModelCannotCharge)
{
    // A grid flag is a usage error when it is empty or holds a value
    // no link can carry, and the default stays untouched.
    const std::vector<double> fallback = {6.3};
    for (const char *bad : {"", "0", "nan", "inf", "1,-2", "1,0"}) {
        std::vector<double> grid = fallback;
        const std::string arg = std::string("--bws=") + bad;
        EXPECT_FALSE(readGridList(arg.c_str(), bad, GridAxis::bandwidth,
                                  grid))
            << arg;
        EXPECT_EQ(grid, fallback) << arg;
    }
    for (const char *bad : {"", "-1", "nan", "inf", "0.5,-inf"}) {
        std::vector<double> grid = fallback;
        const std::string arg = std::string("--lats=") + bad;
        EXPECT_FALSE(
            readGridList(arg.c_str(), bad, GridAxis::latency, grid))
            << arg;
        EXPECT_EQ(grid, fallback) << arg;
    }
    std::vector<double> grid;
    EXPECT_TRUE(readGridList("--bws=6.3,0.03", "6.3,0.03",
                             GridAxis::bandwidth, grid));
    EXPECT_EQ(grid, (std::vector<double>{6.3, 0.03}));
    EXPECT_TRUE(
        readGridList("--lats=0,300", "0,300", GridAxis::latency, grid));
    EXPECT_EQ(grid, (std::vector<double>{0.0, 300.0}));
}

TEST(ScenarioOptionsParse, RejectsNegativeCounts)
{
    // A negative count is a usage error, not "every core" or "no
    // limit".
    ScenarioOptions opts;
    EXPECT_FALSE(opts.parseOne("--jobs=-1"));
    EXPECT_EQ(opts.jobs, 0);
    EXPECT_TRUE(opts.parseOne("--jobs=0"));
    EXPECT_TRUE(opts.parseOne("--jobs=2"));
    EXPECT_EQ(opts.jobs, 2);
    EXPECT_FALSE(parseCount<double>("--assert-rss-mb=-5", "-5"));
    EXPECT_EQ(parseCount<double>("--assert-rss-mb=0", "0"), 0.0);
}

TEST(ScenarioOptionsParse, CollectivesFlag)
{
    ScenarioOptions opts =
        parseAll({"--collectives=magpie,bcast=seg:16k"});
    EXPECT_EQ(opts.scenario.collectives.spec(),
              "magpie,bcast=seg:16k");

    ScenarioOptions bad;
    EXPECT_FALSE(bad.parseOne("--collectives=mpich"));
    EXPECT_FALSE(bad.parseOne("--collectives="));
}

TEST(ScenarioOptionsParse, TuningTableFlag)
{
    // A real table file round-trips into a bound-later tuned policy.
    magpie::TuningTable t;
    t.clusters = 2;
    t.procsPerCluster = 2;
    t.gaps = {{1.0, 10.0}};
    t.cells.resize(1);
    for (int i = 0; i < magpie::kOpCount; ++i)
        t.cells[0][i].push_back({0, magpie::Choice::magpie()});
    t.finalize();
    const std::string path = "options_tuning_test.json";
    exec::storeTuningTable(path, t);

    ScenarioOptions opts = parseAll({"--tuning-table=" + path});
    EXPECT_TRUE(opts.scenario.collectives.isTuned());
    EXPECT_EQ(opts.scenario.collectives.spec(),
              "tuned:" + [&] {
                  char hex[32];
                  std::snprintf(hex, sizeof hex, "%016llx",
                                static_cast<unsigned long long>(
                                    t.contentHash()));
                  return std::string(hex);
              }());
    std::filesystem::remove(path);

    ScenarioOptions missing;
    EXPECT_FALSE(
        missing.parseOne("--tuning-table=no_such_table.json"));
}

TEST(ScenarioOptionsParse, WanShapeFlags)
{
    // The two spellings of a 2x2 torus.
    ScenarioOptions spec = parseAll(
        {"--clusters=4", "--procs=2", "--wan-topology=torus-2x2"});
    EXPECT_EQ(spec.scenario.wanShape, net::WanShape::torus({2, 2}));

    ScenarioOptions dims = parseAll(
        {"--clusters=4", "--procs=2", "--wan-topology=torus",
         "--wan-dims=2x2"});
    EXPECT_TRUE(spec.scenario == dims.scenario);

    // --wan-dims composes with --wan-topology in either flag order.
    ScenarioOptions reversed = parseAll(
        {"--wan-dims=2x2", "--wan-topology=mesh", "--clusters=4",
         "--procs=2"});
    EXPECT_EQ(reversed.scenario.wanShape, net::WanShape::mesh({2, 2}));
}

TEST(ScenarioOptionsParse, FinalizeReportsShapeMismatch)
{
    // The flag parses fine; the product check is finalize()'s job,
    // with the same spelling Scenario::validate() uses everywhere.
    ScenarioOptions opts;
    EXPECT_TRUE(opts.parseOne("--clusters=4"));
    EXPECT_TRUE(opts.parseOne("--wan-topology=torus"));
    EXPECT_TRUE(opts.parseOne("--wan-dims=2x4"));
    std::string err = opts.finalize();
    EXPECT_NE(err.find("product"), std::string::npos) << err;

    core::Scenario manual;
    manual.clusters = 4;
    manual.wanShape = net::WanShape::torus({2, 4});
    EXPECT_EQ(err, manual.validate());
}

TEST(MakeEngine, HonoursCacheAndJobs)
{
    std::string dir =
        ::testing::TempDir() + "tli_tools_options_engine";
    std::filesystem::remove_all(dir);

    ScenarioOptions opts =
        parseAll({"--jobs=3", "--cache-dir=" + dir});
    ExecSetup with = makeEngine(opts, /*progress=*/false);
    ASSERT_NE(with.cache, nullptr);
    EXPECT_EQ(with.cache->dir(), dir);
    EXPECT_EQ(with.engine->config().jobs, 3);
    EXPECT_EQ(with.engine->config().cache, with.cache.get());
    EXPECT_FALSE(with.engine->config().progress);
    EXPECT_TRUE(std::filesystem::is_directory(dir));

    opts.noCache = true;
    ExecSetup without = makeEngine(opts, /*progress=*/true);
    EXPECT_EQ(without.cache, nullptr);
    EXPECT_EQ(without.engine->config().cache, nullptr);
    EXPECT_TRUE(without.engine->config().progress);
}

} // namespace
} // namespace tli::tools
