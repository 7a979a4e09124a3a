/**
 * @file
 * Tests for the ASP application: the Floyd-Warshall kernel, the
 * partitioning helpers, and the parallel program (both variants).
 */

#include "apps/asp/asp.h"

#include <gtest/gtest.h>

#include <cstring>

#include "apps/partition.h"

namespace tli::apps::asp {
namespace {

using Vec = std::vector<double>;

TEST(AspKernel, TinyGraphByHand)
{
    // 0 ->1 (1), 1->2 (2), 0->2 (9): shortest 0->2 is 3 via 1.
    Matrix m = {{0, 1, 9}, {5, 0, 2}, {4, 7, 0}};
    floydWarshall(m);
    EXPECT_DOUBLE_EQ(m[0][2], 3);
    EXPECT_DOUBLE_EQ(m[0][1], 1);
    EXPECT_DOUBLE_EQ(m[2][1], 5); // 2->0->1 = 4+1
    EXPECT_DOUBLE_EQ(m[1][0], 5); // direct edge beats 1->2->0 = 6
}

TEST(AspKernel, GraphGenerationIsDeterministic)
{
    Matrix a = makeGraph(50, 7);
    Matrix b = makeGraph(50, 7);
    Matrix c = makeGraph(50, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(a[i][i], 0.0);
        for (int j = 0; j < 50; ++j) {
            if (i != j) {
                EXPECT_GE(a[i][j], 1.0);
                EXPECT_LE(a[i][j], 100.0);
            }
        }
    }
}

/** The relaxation loop relaxRow replaced, kept as the reference. */
void
branchyRelax(Vec &di, const Vec &row_k, int k)
{
    const double dik = di[k];
    for (std::size_t j = 0; j < di.size(); ++j) {
        double via = dik + row_k[j];
        if (via < di[j])
            di[j] = via;
    }
}

bool
sameBits(const Vec &a, const Vec &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(AspKernel, RelaxRowMatchesBranchyLoop)
{
    // Ties (via == d[j]), zeros of both signs and a zero pivot entry,
    // where a select that preferred via would differ.
    const Vec ties = {0.0, -0.0, 3.0, 5.0, 0.0, 7.0, -0.0, 2.0};
    const Vec pivot = {-0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 0.0, 2.0};
    for (int k = 0; k < static_cast<int>(ties.size()); ++k) {
        Vec want = ties;
        Vec got = ties;
        branchyRelax(want, pivot, k);
        relaxRow(got, pivot, k);
        EXPECT_TRUE(sameBits(got, want)) << "k=" << k;
    }
    // Every (row, pivot row) pair of a random graph, twice over so the
    // second pass sees rows that the first already relaxed.
    Matrix g = makeGraph(24, 5);
    for (int pass = 0; pass < 2; ++pass) {
        for (int k = 0; k < 24; ++k) {
            const Vec row_k = g[k];
            for (int i = 0; i < 24; ++i) {
                Vec want = g[i];
                branchyRelax(want, row_k, k);
                relaxRow(g[i], row_k, k);
                ASSERT_TRUE(sameBits(g[i], want))
                    << "pass " << pass << " k=" << k << " i=" << i;
            }
        }
    }
}

TEST(AspKernel, TriangleInequalityAfterSolve)
{
    Matrix m = makeGraph(40, 3);
    floydWarshall(m);
    for (int i = 0; i < 40; ++i) {
        for (int j = 0; j < 40; ++j) {
            for (int k = 0; k < 40; ++k)
                EXPECT_LE(m[i][j], m[i][k] + m[k][j] + 1e-12);
        }
    }
}

TEST(AspKernel, SolveIsIdempotent)
{
    Matrix m = makeGraph(30, 11);
    floydWarshall(m);
    Matrix twice = m;
    floydWarshall(twice);
    EXPECT_EQ(m, twice);
}

TEST(Partition, BlocksCoverRangeExactly)
{
    for (int n : {7, 32, 100, 320}) {
        for (int p : {1, 3, 8, 32}) {
            int covered = 0;
            for (int r = 0; r < p; ++r) {
                EXPECT_EQ(blockLo(r, n, p) , covered);
                covered = blockHi(r, n, p);
                EXPECT_EQ(blockSize(r, n, p),
                          blockHi(r, n, p) - blockLo(r, n, p));
            }
            EXPECT_EQ(covered, n);
            for (int i = 0; i < n; ++i) {
                int o = blockOwner(i, n, p);
                EXPECT_GE(i, blockLo(o, n, p));
                EXPECT_LT(i, blockHi(o, n, p));
            }
        }
    }
}

core::Scenario
smallScenario(int clusters, int procs)
{
    core::Scenario s;
    s.clusters = clusters;
    s.procsPerCluster = procs;
    s.problemScale = 0.05;
    return s;
}

TEST(AspParallel, UnoptimizedVerifies)
{
    auto r = run(smallScenario(2, 2), false);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.runTime, 0);
}

TEST(AspParallel, OptimizedVerifies)
{
    auto r = run(smallScenario(2, 2), true);
    EXPECT_TRUE(r.verified);
}

TEST(AspParallel, SingleProcessorDegenerate)
{
    auto r = run(smallScenario(1, 1), false);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.traffic.inter.messages, 0u);
}

TEST(AspParallel, VariantsComputeIdenticalChecksums)
{
    auto a = run(smallScenario(2, 4), false);
    auto b = run(smallScenario(2, 4), true);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(AspParallel, MigrationCutsSequencerWanTraffic)
{
    // At high latency, the migrating sequencer must make the program
    // faster: the unoptimized version pays one WAN round trip per row
    // broadcast by a non-sequencer cluster.
    core::Scenario s = smallScenario(4, 2);
    s.wanLatencyMs = 30;
    auto unopt = run(s, false);
    auto opt = run(s, true);
    ASSERT_TRUE(unopt.verified && opt.verified);
    EXPECT_LT(opt.runTime, unopt.runTime);
    // Optimized sends fewer inter-cluster messages (sequence traffic
    // stays inside clusters; rows still cross).
    EXPECT_LT(opt.traffic.inter.messages,
              unopt.traffic.inter.messages);
}

TEST(AspParallel, AllMyrinetFasterThanWideArea)
{
    core::Scenario wan = smallScenario(2, 2);
    wan.wanBandwidthMBs = 0.1;
    wan.wanLatencyMs = 30;
    auto fast = run(wan.asAllMyrinet(), false);
    auto slow = run(wan, false);
    EXPECT_LT(fast.runTime, slow.runTime);
}

} // namespace
} // namespace tli::apps::asp
