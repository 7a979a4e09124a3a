/**
 * @file
 * Large-rank determinism suite: the synthetic scale workload must be
 * bit-identical run-to-run at 1k and 10k ranks, reliable delivery
 * must hold at 1k ranks under loss, and a batch of scale-varied app
 * experiments must produce identical results at 1 and 4 workers.
 */

#include "exec/scale_workload.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/registry.h"
#include "core/scenario.h"
#include "exec/engine.h"

namespace tli::exec {
namespace {

TEST(ScaleDeterminism, BitIdenticalAt1kRanks)
{
    const ScaleConfig config{.clusters = 32, .procsPerCluster = 32};
    const ScaleResult a = runScaleWorkload(config);
    const ScaleResult b = runScaleWorkload(config);
    EXPECT_EQ(a.ranks, 1024);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.delivered, a.sent);
}

TEST(ScaleDeterminism, BitIdenticalAt10kRanks)
{
    const ScaleConfig config{.clusters = 32, .procsPerCluster = 320};
    const ScaleResult a = runScaleWorkload(config);
    const ScaleResult b = runScaleWorkload(config);
    EXPECT_EQ(a.ranks, 10240);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.delivered, a.sent);
    // The ordering state must stay sparse: only the cross-cluster
    // stripe is clamped, far below the 10240^2 dense table.
    EXPECT_LT(a.activePairs, 10240u);
    EXPECT_LT(a.orderingBytes, 1u << 20);
}

TEST(ScaleDeterminism, ConcurrentRunsMatchSerialRuns)
{
    // Four simulations in four threads — the engine's jobs=4 shape —
    // must each produce the same bits as the same simulation alone.
    const ScaleConfig config{.clusters = 16, .procsPerCluster = 16};
    const ScaleResult serial = runScaleWorkload(config);

    std::vector<ScaleResult> results(4);
    std::vector<std::thread> pool;
    pool.reserve(results.size());
    for (std::size_t t = 0; t < results.size(); ++t)
        pool.emplace_back(
            [&, t] { results[t] = runScaleWorkload(config); });
    for (std::thread &th : pool)
        th.join();

    for (const ScaleResult &r : results) {
        EXPECT_EQ(r.digest, serial.digest);
        EXPECT_EQ(r.events, serial.events);
        EXPECT_EQ(r.simTime, serial.simTime);
    }
}

TEST(ScaleDeterminism, ReliableLossyRunCompletesAt1kRanks)
{
    // Loss engages panda::Reliable: every message must still arrive
    // (retransmission), and the run must stay reproducible.
    const ScaleConfig config{.clusters = 32,
                             .procsPerCluster = 32,
                             .rounds = 2,
                             .wanLossRate = 0.05};
    const ScaleResult a = runScaleWorkload(config);
    EXPECT_EQ(a.delivered, a.sent);
    EXPECT_GT(a.simTime, 0.0);

    const ScaleResult b = runScaleWorkload(config);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.events, b.events);
}

TEST(ScaleDeterminism, EngineParallelMatchesSerialAcrossMachineSizes)
{
    // A batch over growing machine shapes: results at jobs=4 must be
    // bit-identical to jobs=1, including the large shapes where the
    // sparse ordering state actually kicks in.
    std::vector<core::ExperimentJob> jobs;
    const core::AppVariant v = apps::bestVariants().front();
    for (auto [clusters, procs] :
         {std::pair{2, 4}, {4, 8}, {8, 16}}) {
        jobs.push_back({v,
                        core::ScenarioBuilder()
                            .clusters(clusters)
                            .procsPerCluster(procs)
                            .problemScale(0.2)
                            .build(),
                        ""});
    }

    Engine serial({.jobs = 1});
    Engine parallel({.jobs = 4});
    const std::vector<core::RunResult> a = serial.run(jobs);
    const std::vector<core::RunResult> b = parallel.run(jobs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].runTime, b[i].runTime);
        EXPECT_EQ(a[i].checksum, b[i].checksum);
        EXPECT_EQ(a[i].traffic.inter.messages,
                  b[i].traffic.inter.messages);
        EXPECT_EQ(a[i].traffic.inter.bytes,
                  b[i].traffic.inter.bytes);
    }
}

} // namespace
} // namespace tli::exec
