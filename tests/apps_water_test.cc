/**
 * @file
 * Tests for the Water application: the molecular-dynamics model, the
 * all-to-half ownership convention, and the parallel program.
 */

#include "apps/water/water.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "apps/water/model.h"

namespace tli::apps::water {
namespace {

TEST(WaterModel, PairForceIsAntisymmetric)
{
    System s = makeSystem(2, 3);
    Vec3 f = pairForce(s.pos[0], s.pos[1], s.boxSize);
    Vec3 g = pairForce(s.pos[1], s.pos[0], s.boxSize);
    EXPECT_DOUBLE_EQ(f.x, -g.x);
    EXPECT_DOUBLE_EQ(f.y, -g.y);
    EXPECT_DOUBLE_EQ(f.z, -g.z);
}

TEST(WaterModel, MinimumImageWrapsAcrossBox)
{
    double box = 10;
    Vec3 a{0.5, 5, 5};
    Vec3 b{9.5, 5, 5};
    // Nearest image of b is at -0.5: separation 1.0, not 9.0.
    Vec3 f = pairForce(a, b, box);
    Vec3 g = pairForce(a, Vec3{-0.5, 5, 5}, box);
    EXPECT_NEAR(f.x, g.x, 1e-12);
    EXPECT_NEAR(f.y, g.y, 1e-12);
}

TEST(WaterModel, CloseApproachIsSoftened)
{
    Vec3 a{5, 5, 5};
    Vec3 b{5.01, 5, 5};
    Vec3 f = pairForce(a, b, 10);
    EXPECT_TRUE(std::isfinite(f.x));
    EXPECT_LT(std::fabs(f.x), 1e4);
}

TEST(WaterModel, NewtonThirdLawGlobally)
{
    System s = makeSystem(40, 5);
    std::vector<Vec3> forces(40);
    for (int i = 0; i < 40; ++i) {
        for (int j = i + 1; j < 40; ++j) {
            Vec3 f = pairForce(s.pos[i], s.pos[j], s.boxSize);
            forces[i] += f;
            forces[j] -= f;
        }
    }
    Vec3 total{0, 0, 0};
    for (const Vec3 &f : forces)
        total += f;
    EXPECT_NEAR(total.x, 0, 1e-9);
    EXPECT_NEAR(total.y, 0, 1e-9);
    EXPECT_NEAR(total.z, 0, 1e-9);
}

TEST(WaterModel, SequentialRunIsDeterministic)
{
    System a = makeSystem(30, 1);
    System b = makeSystem(30, 1);
    simulateSequential(a, 3, timeStep);
    simulateSequential(b, 3, timeStep);
    EXPECT_DOUBLE_EQ(checksum(a), checksum(b));
}

TEST(WaterHalf, EveryPairComputedExactlyOnce)
{
    for (int p : {1, 2, 3, 4, 8, 32}) {
        // Count each unordered rank pair over all halves.
        std::set<std::pair<Rank, Rank>> pairs;
        for (Rank i = 0; i < p; ++i) {
            for (Rank j : halfOf(i, p)) {
                auto key = std::minmax(i, j);
                EXPECT_TRUE(pairs.emplace(key).second)
                    << "pair computed twice, p=" << p;
            }
        }
        EXPECT_EQ(pairs.size(),
                  static_cast<std::size_t>(p) * (p - 1) / 2)
            << "pair missed, p=" << p;
    }
}

TEST(WaterHalf, ContributorsMirrorsHalf)
{
    // j contributes to i exactly when i is in j's half, both ways.
    for (int p = 1; p <= 64; ++p) {
        for (Rank i = 0; i < p; ++i) {
            const std::vector<Rank> contributors = contributorsOf(i, p);
            EXPECT_TRUE(std::is_sorted(contributors.begin(),
                                       contributors.end()));
            for (Rank j = 0; j < p; ++j) {
                auto half = halfOf(j, p);
                const bool in_half =
                    std::find(half.begin(), half.end(), i) != half.end();
                const bool contributes =
                    std::find(contributors.begin(), contributors.end(),
                              j) != contributors.end();
                EXPECT_EQ(in_half, contributes)
                    << "p=" << p << " i=" << i << " j=" << j;
            }
        }
    }
}

TEST(WaterHalf, HalfSizeIsBalanced)
{
    for (int p : {2, 4, 8, 32}) {
        for (Rank i = 0; i < p; ++i) {
            auto h = halfOf(i, p);
            EXPECT_GE(static_cast<int>(h.size()), p / 2 - 1);
            EXPECT_LE(static_cast<int>(h.size()), p / 2);
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

TEST(WaterParallel, UnoptimizedVerifies)
{
    auto r = run(smallScenario(2, 2), false);
    EXPECT_TRUE(r.verified);
}

TEST(WaterParallel, OptimizedVerifies)
{
    auto r = run(smallScenario(2, 2), true);
    EXPECT_TRUE(r.verified);
}

TEST(WaterParallel, FourClusters)
{
    EXPECT_TRUE(run(smallScenario(4, 4), false).verified);
    EXPECT_TRUE(run(smallScenario(4, 4), true).verified);
}

TEST(WaterParallel, OptimizedCutsWanTraffic)
{
    core::Scenario s = smallScenario(4, 4);
    auto unopt = run(s, false);
    auto opt = run(s, true);
    ASSERT_TRUE(unopt.verified && opt.verified);
    // Coordinator caching + two-level reduction: the same data no
    // longer crosses the same slow link once per requester.
    EXPECT_LT(opt.traffic.inter.messages,
              unopt.traffic.inter.messages / 2);
    EXPECT_LT(opt.traffic.inter.bytes, unopt.traffic.inter.bytes);
}

TEST(WaterParallel, OptimizedWinsAtLowBandwidth)
{
    core::Scenario s = smallScenario(4, 4);
    s.wanBandwidthMBs = 0.1;
    s.wanLatencyMs = 10;
    auto unopt = run(s, false);
    auto opt = run(s, true);
    ASSERT_TRUE(unopt.verified && opt.verified);
    EXPECT_LT(opt.runTime, unopt.runTime);
}

} // namespace
} // namespace tli::apps::water
