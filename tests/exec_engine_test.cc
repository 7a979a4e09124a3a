/**
 * @file
 * The exec engine and result cache: worker-count invariance (parallel
 * results bit-identical to serial), cache store/load round trips,
 * warm-batch behaviour, fingerprint addressing, and trace-sink
 * confinement.
 */

#include "exec/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/json.h"
#include "exec/result_cache.h"
#include "sim/trace.h"

namespace tli::exec {
namespace {

/** A fresh, empty cache directory unique to the running test. */
std::string
freshCacheDir()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string dir = ::testing::TempDir() + "tli_exec_" +
                      info->test_suite_name() + "_" + info->name();
    std::filesystem::remove_all(dir);
    return dir;
}

core::Scenario
tinyScenario()
{
    core::Scenario s;
    s.clusters = 2;
    s.procsPerCluster = 2;
    s.problemScale = 0.05;
    return s;
}

std::vector<core::ExperimentJob>
tinyBatch(const std::string &app, const std::string &variant, int n)
{
    std::vector<core::ExperimentJob> jobs;
    core::AppVariant v = apps::findVariant(app, variant);
    for (int i = 0; i < n; ++i) {
        core::Scenario s = tinyScenario();
        s.wanLatencyMs = 0.5 + 10.0 * i;
        jobs.push_back({v, s, ""});
    }
    return jobs;
}

void
expectSameStats(const net::LinkStats &a, const net::LinkStats &b)
{
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.busyTime, b.busyTime);
}

/** Bit-exact RunResult equality, every field and counter. */
void
expectSameResult(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.runTime, b.runTime);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.computePerRank, b.computePerRank);
    EXPECT_EQ(a.collectiveDispatch, b.collectiveDispatch);

    const net::FabricStats &ta = a.traffic;
    const net::FabricStats &tb = b.traffic;
    EXPECT_EQ(ta.wanShape, tb.wanShape);
    EXPECT_EQ(ta.clusters, tb.clusters);
    EXPECT_EQ(ta.wanTransit, tb.wanTransit);
    EXPECT_EQ(ta.wanLossDrops, tb.wanLossDrops);
    EXPECT_EQ(ta.wanOutageDrops, tb.wanOutageDrops);
    EXPECT_EQ(ta.orderedPairs, tb.orderedPairs);
    EXPECT_EQ(ta.orderingBytes, tb.orderingBytes);
    EXPECT_EQ(ta.delivery.retransmits, tb.delivery.retransmits);
    EXPECT_EQ(ta.delivery.duplicates, tb.delivery.duplicates);
    EXPECT_EQ(ta.delivery.acks, tb.delivery.acks);
    EXPECT_EQ(ta.delivery.duplicateAcks, tb.delivery.duplicateAcks);
    expectSameStats(ta.intra, tb.intra);
    expectSameStats(ta.inter, tb.inter);
    ASSERT_EQ(ta.interPerCluster.size(), tb.interPerCluster.size());
    for (std::size_t i = 0; i < ta.interPerCluster.size(); ++i)
        expectSameStats(ta.interPerCluster[i], tb.interPerCluster[i]);
    ASSERT_EQ(ta.nics.size(), tb.nics.size());
    for (std::size_t i = 0; i < ta.nics.size(); ++i)
        expectSameStats(ta.nics[i], tb.nics[i]);
    ASSERT_EQ(ta.gatewayOut.size(), tb.gatewayOut.size());
    for (std::size_t i = 0; i < ta.gatewayOut.size(); ++i)
        expectSameStats(ta.gatewayOut[i], tb.gatewayOut[i]);
    ASSERT_EQ(ta.gatewayIn.size(), tb.gatewayIn.size());
    for (std::size_t i = 0; i < ta.gatewayIn.size(); ++i)
        expectSameStats(ta.gatewayIn[i], tb.gatewayIn[i]);
    ASSERT_EQ(ta.wanLinks.size(), tb.wanLinks.size());
    for (std::size_t i = 0; i < ta.wanLinks.size(); ++i) {
        EXPECT_EQ(ta.wanLinks[i].a, tb.wanLinks[i].a);
        EXPECT_EQ(ta.wanLinks[i].b, tb.wanLinks[i].b);
        EXPECT_STREQ(ta.wanLinks[i].kind, tb.wanLinks[i].kind);
        expectSameStats(ta.wanLinks[i].stats, tb.wanLinks[i].stats);
    }
}

TEST(Engine, ResolveJobs)
{
    EXPECT_EQ(Engine::resolveJobs(1), 1);
    EXPECT_EQ(Engine::resolveJobs(7), 7);
    EXPECT_GE(Engine::resolveJobs(0), 1); // hardware concurrency
}

TEST(Engine, EmptyBatch)
{
    Engine engine;
    EXPECT_TRUE(engine.run({}).empty());
    EXPECT_EQ(engine.lastBatch().jobs, 0u);
}

TEST(Engine, ParallelMatchesSerialInJobOrder)
{
    std::vector<core::ExperimentJob> jobs = tinyBatch("tsp", "opt", 5);

    Engine serial({.jobs = 1});
    Engine parallel({.jobs = 4});
    std::vector<core::RunResult> a = serial.run(jobs);
    std::vector<core::RunResult> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    EXPECT_EQ(serial.lastBatch().simulated, jobs.size());
    EXPECT_EQ(parallel.lastBatch().simulated, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameResult(a[i], b[i]);
}

TEST(Engine, WarmCacheBatchRunsZeroSimulations)
{
    ResultCache cache(freshCacheDir());
    std::vector<core::ExperimentJob> jobs =
        tinyBatch("water", "opt", 4);

    Engine cold({.jobs = 4, .cache = &cache});
    std::vector<core::RunResult> first = cold.run(jobs);
    EXPECT_EQ(cold.lastBatch().simulated, jobs.size());
    EXPECT_EQ(cold.lastBatch().cacheHits, 0u);
    EXPECT_EQ(cold.lastBatch().stored, jobs.size());

    Engine warm({.jobs = 4, .cache = &cache});
    std::vector<core::RunResult> second = warm.run(jobs);
    EXPECT_EQ(warm.lastBatch().simulated, 0u);
    EXPECT_EQ(warm.lastBatch().cacheHits, jobs.size());
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i]);
}

/** Run @p jobs cold, then warm from the same cache; every field of
 *  every cache hit must equal the simulated result. */
void
expectWarmHitsMatchCold(const std::vector<core::ExperimentJob> &jobs)
{
    ResultCache cache(freshCacheDir());
    Engine cold({.jobs = 2, .cache = &cache});
    std::vector<core::RunResult> first = cold.run(jobs);
    EXPECT_EQ(cold.lastBatch().simulated, jobs.size());

    Engine warm({.jobs = 2, .cache = &cache});
    std::vector<core::RunResult> second = warm.run(jobs);
    EXPECT_EQ(warm.lastBatch().cacheHits, jobs.size());
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(first[i].verified);
        expectSameResult(first[i], second[i]);
    }
}

TEST(Engine, WarmCacheKeepsTheCollectiveDispatchLog)
{
    std::vector<core::ExperimentJob> jobs = tinyBatch("asp", "opt", 2);
    for (core::ExperimentJob &job : jobs)
        job.scenario.collectives = magpie::CollectivePolicy::magpie();
    // The log is what a cache hit must reproduce; a run that issues
    // no collectives would make this test vacuous.
    ASSERT_FALSE(
        jobs[0].variant.run(jobs[0].scenario).collectiveDispatch.empty());
    expectWarmHitsMatchCold(jobs);
}

TEST(Engine, WarmCacheKeepsImpairedDeliveryCounters)
{
    std::vector<core::ExperimentJob> jobs = tinyBatch("tsp", "opt", 2);
    for (core::ExperimentJob &job : jobs)
        job.scenario.wanLossRate = 0.05;
    const core::RunResult lossy = jobs[0].variant.run(jobs[0].scenario);
    ASSERT_GT(lossy.traffic.wanLossDrops, 0u);
    ASSERT_GT(lossy.traffic.delivery.retransmits, 0u);
    expectWarmHitsMatchCold(jobs);
}

TEST(ResultCache, EntryWithoutDispatchLogReadsAsMiss)
{
    ResultCache cache(freshCacheDir());
    core::ExperimentJob job = tinyBatch("fft", "unopt", 1)[0];
    core::RunResult run = job.variant.run(job.scenario);
    const std::string fp = jobFingerprint(job.variant, job.scenario);
    cache.store(fp, job, run);
    ASSERT_TRUE(cache.load(fp).has_value());

    // Rewrite the entry as the format before the log was stored.
    std::string text;
    {
        std::ifstream in(cache.entryPath(fp));
        text.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::size_t at = text.find("\"collective_dispatch\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = text.find(']', at);
    ASSERT_NE(end, std::string::npos);
    // Drop the member and the comma that preceded it.
    const std::size_t comma = text.rfind(',', at);
    text.erase(comma, end + 1 - comma);
    { std::ofstream(cache.entryPath(fp)) << text; }
    ASSERT_TRUE(core::parseJson(text).has_value());
    EXPECT_FALSE(cache.load(fp).has_value());
}

TEST(Engine, PartiallyWarmCacheOnlySimulatesNewPoints)
{
    ResultCache cache(freshCacheDir());
    std::vector<core::ExperimentJob> jobs =
        tinyBatch("fft", "unopt", 2);

    Engine engine({.jobs = 2, .cache = &cache});
    engine.run(jobs);

    // Extend the grid: two cached points plus two new ones.
    std::vector<core::ExperimentJob> extended =
        tinyBatch("fft", "unopt", 4);
    std::vector<core::RunResult> results = engine.run(extended);
    EXPECT_EQ(engine.lastBatch().cacheHits, 2u);
    EXPECT_EQ(engine.lastBatch().simulated, 2u);
    ASSERT_EQ(results.size(), 4u);
    for (const core::RunResult &r : results)
        EXPECT_TRUE(r.verified);
}

TEST(ResultCache, StoreLoadRoundTripIsBitIdentical)
{
    ResultCache cache(freshCacheDir());
    core::ExperimentJob job = tinyBatch("barnes", "opt", 1)[0];
    core::RunResult run = job.variant.run(job.scenario);
    ASSERT_TRUE(run.verified);

    std::string fp = jobFingerprint(job.variant, job.scenario);
    EXPECT_FALSE(cache.load(fp).has_value());
    cache.store(fp, job, run);
    std::optional<core::RunResult> loaded = cache.load(fp);
    ASSERT_TRUE(loaded.has_value());
    expectSameResult(run, *loaded);
}

TEST(ResultCache, CorruptEntriesReadAsMisses)
{
    ResultCache cache(freshCacheDir());
    const std::string fp = "00000000deadbeef";
    { std::ofstream(cache.entryPath(fp)) << "{\"schema\": tru"; }
    EXPECT_FALSE(cache.load(fp).has_value());
    { std::ofstream(cache.entryPath(fp)) << "{\"schema\": \"v0\"}"; }
    EXPECT_FALSE(cache.load(fp).has_value());
    // A valid schema, then a member missing or of the wrong type.
    const std::string head = "{\"schema\": \"tli-result-cache-v1\"";
    { std::ofstream(cache.entryPath(fp)) << head << "}"; }
    EXPECT_FALSE(cache.load(fp).has_value());
    {
        std::ofstream(cache.entryPath(fp))
            << head << ", \"result\": {\"run_time_s\": \"1\"}}";
    }
    EXPECT_FALSE(cache.load(fp).has_value());
}

TEST(ResultCache, FingerprintSeparatesExperiments)
{
    core::AppVariant water = apps::findVariant("water", "opt");
    core::AppVariant unopt = apps::findVariant("water", "unopt");
    core::Scenario s = tinyScenario();

    // Same scenario, different variant: different address.
    EXPECT_NE(jobFingerprint(water, s), jobFingerprint(unopt, s));
    // Same variant, different knob: different address.
    core::Scenario t = s;
    t.wanBandwidthMBs = 0.3;
    EXPECT_NE(jobFingerprint(water, s), jobFingerprint(water, t));
    // Deterministic, 16 hex digits.
    std::string fp = jobFingerprint(water, s);
    EXPECT_EQ(fp, jobFingerprint(water, s));
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

/** Collects message events; identity is what matters. */
class CountingSink : public sim::TraceSink
{
  public:
    void onMessage(const sim::MessageTrace &) override { ++events_; }
    std::uint64_t events() const { return events_; }

  private:
    std::uint64_t events_ = 0;
};

TEST(Engine, SharedTraceSinkBatchStaysDeterministic)
{
    // Two jobs sharing one sink: the engine must demote to a single
    // worker so the sink sees one deterministic event stream, and the
    // results must still match an untraced serial run.
    CountingSink sink;
    std::vector<core::ExperimentJob> jobs = tinyBatch("asp", "opt", 2);
    std::vector<core::ExperimentJob> traced = jobs;
    for (core::ExperimentJob &job : traced)
        job.scenario.trace = &sink;

    Engine serial({.jobs = 1});
    Engine parallel({.jobs = 4});
    std::vector<core::RunResult> plain = serial.run(jobs);
    std::vector<core::RunResult> shared = parallel.run(traced);
    ASSERT_EQ(shared.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        expectSameResult(plain[i], shared[i]);
    EXPECT_GT(sink.events(), 0u);
}

} // namespace
} // namespace tli::exec
