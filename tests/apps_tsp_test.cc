/**
 * @file
 * Tests for the TSP application: the branch-and-bound kernel, job
 * generation, determinism of the fixed-cutoff search, and the
 * parallel program with both queue organizations.
 */

#include "apps/tsp/tsp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string_view>

#include "sim/hash.h"

namespace tli::apps::tsp {
namespace {

/** Brute-force optimum for cross-checking small instances. */
int
bruteForce(const DistanceMatrix &d)
{
    const int n = static_cast<int>(d.size());
    std::vector<int> perm(n - 1);
    std::iota(perm.begin(), perm.end(), 1);
    int best = 1 << 30;
    do {
        int len = d[0][perm[0]];
        for (int i = 0; i + 1 < n - 1; ++i)
            len += d[perm[i]][perm[i + 1]];
        len += d[perm.back()][0];
        best = std::min(best, len);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

TEST(TspKernel, DistancesAreSymmetricAndDeterministic)
{
    DistanceMatrix a = makeCities(10, 3);
    DistanceMatrix b = makeCities(10, 3);
    EXPECT_EQ(a, b);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(a[i][i], 0);
        for (int j = 0; j < 10; ++j)
            EXPECT_EQ(a[i][j], a[j][i]);
    }
}

TEST(TspKernel, OptimalMatchesBruteForce)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        DistanceMatrix d = makeCities(8, seed);
        EXPECT_EQ(optimalTourLength(d), bruteForce(d)) << seed;
    }
}

TEST(TspKernel, JobGenerationCountsAndPrefixes)
{
    DistanceMatrix d = makeCities(9, 5);
    auto jobs = makeJobs(d, 3);
    // 8 * 7 prefixes of (0, a, b).
    EXPECT_EQ(jobs.size(), 56u);
    for (const Tour &j : jobs) {
        ASSERT_EQ(j.size(), 3u);
        EXPECT_EQ(j[0], 0);
        EXPECT_NE(j[1], j[2]);
    }
}

TEST(TspKernel, FixedCutoffSearchFindsOptimum)
{
    DistanceMatrix d = makeCities(9, 6);
    int optimal = optimalTourLength(d);
    auto jobs = makeJobs(d, 3);
    SearchResult r = searchAll(d, jobs, optimal);
    EXPECT_EQ(r.bestLength, optimal);
    EXPECT_GT(r.nodesVisited, 0u);
}

TEST(TspKernel, NodeCountIndependentOfJobOrder)
{
    // The fixed cutoff makes work deterministic regardless of the
    // schedule — the property the paper relies on for reproducible
    // measurements.
    DistanceMatrix d = makeCities(9, 7);
    int optimal = optimalTourLength(d);
    auto jobs = makeJobs(d, 3);
    SearchResult fwd = searchAll(d, jobs, optimal);
    std::reverse(jobs.begin(), jobs.end());
    SearchResult rev = searchAll(d, jobs, optimal);
    EXPECT_EQ(fwd.nodesVisited, rev.nodesVisited);
    EXPECT_EQ(fwd.bestLength, rev.bestLength);
}

TEST(TspKernel, LooserCutoffVisitsMoreNodes)
{
    DistanceMatrix d = makeCities(9, 8);
    int optimal = optimalTourLength(d);
    auto jobs = makeJobs(d, 3);
    SearchResult tight = searchAll(d, jobs, optimal);
    SearchResult loose = searchAll(d, jobs, optimal + 50);
    EXPECT_GE(loose.nodesVisited, tight.nodesVisited);
}

TEST(TspKernel, PerJobResultsArePinned)
{
    // Every job's node count and best length on two 11-city inputs,
    // recorded from the original vector<bool> search that rescanned
    // the unvisited cities at every node. Any change to the pruning
    // or the visit order moves the digest.
    struct Pin
    {
        std::uint64_t seed;
        int optimal;
        std::uint64_t digest;
        std::uint64_t totalNodes;
        std::size_t jobsWithTour;
        std::size_t busiestJob;
        std::uint64_t busiestNodes;
        int busiestBest;
    };
    const Pin pins[] = {
        {42, 156, 0x7C68A89F361E3490ULL, 38096, 110, 1960, 456, 248},
        {7, 171, 0x3DABEA3FF3A45EBAULL, 24526, 77, 1363, 281, 171},
    };
    for (const Pin &pin : pins) {
        DistanceMatrix d = makeCities(11, pin.seed);
        ASSERT_EQ(optimalTourLength(d), pin.optimal);
        auto jobs = makeJobs(d, 5);
        ASSERT_EQ(jobs.size(), 5040u);
        std::uint64_t digest = 0xCBF29CE484222325ULL;
        std::uint64_t total = 0;
        std::size_t with_tour = 0;
        for (const Tour &job : jobs) {
            SearchResult r = searchJob(d, job, pin.optimal);
            const std::uint64_t rec[2] = {
                r.nodesVisited,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(r.bestLength))};
            digest = sim::fnv1a(
                std::string_view(reinterpret_cast<const char *>(rec),
                                 sizeof rec),
                digest);
            total += r.nodesVisited;
            if (r.bestLength != std::numeric_limits<int>::max())
                ++with_tour;
        }
        EXPECT_EQ(digest, pin.digest) << "seed " << pin.seed;
        EXPECT_EQ(total, pin.totalNodes) << "seed " << pin.seed;
        EXPECT_EQ(with_tour, pin.jobsWithTour) << "seed " << pin.seed;
        SearchResult busiest =
            searchJob(d, jobs[pin.busiestJob], pin.optimal);
        EXPECT_EQ(busiest.nodesVisited, pin.busiestNodes);
        EXPECT_EQ(busiest.bestLength, pin.busiestBest);
    }
}

core::Scenario
smallScenario(int clusters, int procs)
{
    core::Scenario s;
    s.clusters = clusters;
    s.procsPerCluster = procs;
    s.problemScale = 0.1; // 11 cities
    return s;
}

TEST(TspParallel, CentralQueueVerifies)
{
    auto r = run(smallScenario(2, 2), false);
    EXPECT_TRUE(r.verified);
}

TEST(TspParallel, DistributedQueueVerifies)
{
    auto r = run(smallScenario(2, 2), true);
    EXPECT_TRUE(r.verified);
}

TEST(TspParallel, FourClustersBothVariants)
{
    EXPECT_TRUE(run(smallScenario(4, 2), false).verified);
    EXPECT_TRUE(run(smallScenario(4, 2), true).verified);
}

TEST(TspParallel, DistributedQueueCutsWanMessages)
{
    core::Scenario s = smallScenario(4, 2);
    auto unopt = run(s, false);
    auto opt = run(s, true);
    ASSERT_TRUE(unopt.verified && opt.verified);
    // 75% of central-queue fetches cross the slow links; per-cluster
    // queues keep fetches local.
    EXPECT_LT(opt.traffic.inter.messages,
              unopt.traffic.inter.messages / 2);
}

TEST(TspParallel, LatencySensitiveButBandwidthInsensitive)
{
    // The work-stealing pattern is close to a null-RPC (paper §5.2).
    core::Scenario base = smallScenario(2, 2);

    core::Scenario low_bw = base;
    low_bw.wanBandwidthMBs = 0.1;
    core::Scenario high_lat = base;
    high_lat.wanLatencyMs = 100;

    double t0 = run(base, false).runTime;
    double t_bw = run(low_bw, false).runTime;
    double t_lat = run(high_lat, false).runTime;
    // A 63x bandwidth cut barely moves TSP...
    EXPECT_LT(t_bw, 1.3 * t0);
    // ...but a 200x latency increase hurts.
    EXPECT_GT(t_lat, 1.5 * t0);
}

} // namespace
} // namespace tli::apps::tsp
