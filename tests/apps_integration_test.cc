/**
 * @file
 * Cross-application integration and property tests: every variant
 * verifies on a range of machine shapes and network parameters, and
 * the study-level invariants hold (verification everywhere, slower
 * networks never help, the registry is consistent).
 */

#include "apps/registry.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/gap_study.h"

namespace tli::apps {
namespace {

core::Scenario
smallScenario(int clusters, int procs, double bw = 6.0,
              double lat = 1.0)
{
    core::Scenario s;
    s.clusters = clusters;
    s.procsPerCluster = procs;
    s.wanBandwidthMBs = bw;
    s.wanLatencyMs = lat;
    s.problemScale = 0.05;
    return s;
}

TEST(Registry, HasElevenVariants)
{
    auto all = allVariants();
    EXPECT_EQ(all.size(), 11u); // 5 apps x 2 + FFT
    EXPECT_EQ(unoptimizedVariants().size(), 6u);
    EXPECT_EQ(bestVariants().size(), 6u);
}

TEST(Registry, FindByName)
{
    auto v = findVariant("water", "opt");
    EXPECT_EQ(v.app, "water");
    EXPECT_EQ(v.variant, "opt");
    EXPECT_EQ(v.fullName(), "water/opt");

    // A miss is a value, not an abort: FFT has no optimized variant.
    EXPECT_EQ(lookupVariant("water", "opt")->fullName(), "water/opt");
    EXPECT_FALSE(lookupVariant("fft", "opt").has_value());
    EXPECT_FALSE(lookupVariant("nope", "unopt").has_value());
}

/** (app, variant, clusters, procsPerCluster). */
using Case = std::tuple<std::string, std::string, int, int>;

class EveryVariantEveryShape : public ::testing::TestWithParam<Case>
{
};

TEST_P(EveryVariantEveryShape, VerifiesAndProducesSaneMetrics)
{
    auto [app, variant, clusters, procs] = GetParam();
    auto v = findVariant(app, variant);
    core::RunResult r = v.run(smallScenario(clusters, procs));
    EXPECT_TRUE(r.verified) << v.fullName();
    EXPECT_GT(r.runTime, 0.0);
    if (clusters == 1) {
        EXPECT_EQ(r.traffic.inter.messages, 0u);
    }
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (auto &v : allVariants()) {
        cases.emplace_back(v.app, v.variant, 1, 4);
        cases.emplace_back(v.app, v.variant, 2, 2);
        cases.emplace_back(v.app, v.variant, 4, 2);
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
           "_" + std::to_string(std::get<2>(info.param)) + "x" +
           std::to_string(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Matrix, EveryVariantEveryShape,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(StudyProperties, SlowerLinksNeverHelp)
{
    // Monotonicity: for each app, degrading the interconnect must not
    // reduce the run time (paper: multi-cluster speedup is bounded by
    // the all-Myrinet speedup).
    for (auto &v : bestVariants()) {
        core::Scenario fast = smallScenario(2, 2, 6.0, 0.5);
        core::Scenario slow = smallScenario(2, 2, 0.1, 50.0);
        double t_my = v.run(fast.asAllMyrinet()).runTime;
        double t_fast = v.run(fast).runTime;
        double t_slow = v.run(slow).runTime;
        EXPECT_LE(t_my, t_fast * 1.0001) << v.fullName();
        EXPECT_LE(t_fast, t_slow * 1.0001) << v.fullName();
    }
}

TEST(StudyProperties, GapStudyBaselineAndPointsVerify)
{
    core::GapStudy study(findVariant("asp", "opt"),
                         smallScenario(2, 2));
    auto base = study.baseline();
    EXPECT_TRUE(base.verified);
    auto point = study.at(1.0, 10.0);
    EXPECT_TRUE(point.verified);
    EXPECT_GE(point.runTime, base.runTime);
}

TEST(StudyProperties, SpeedupSurfaceHasExpectedShape)
{
    core::GapStudy study(findVariant("tsp", "opt"),
                         smallScenario(2, 2));
    core::Surface s =
        study.speedupSurface({6.3, 0.1}, {0.5, 100.0});
    ASSERT_EQ(s.values.size(), 2u);
    ASSERT_EQ(s.values[0].size(), 2u);
    // All relative speedups are in (0, 1].
    for (auto &row : s.values) {
        for (double v : row) {
            EXPECT_GT(v, 0.0);
            EXPECT_LE(v, 1.02);
        }
    }
    // Higher latency cannot beat lower latency at equal bandwidth.
    EXPECT_GE(s.values[0][0], s.values[1][0]);
}

TEST(StudyProperties, CommTimeSurfaceWithinBounds)
{
    core::GapStudy study(findVariant("water", "opt"),
                         smallScenario(2, 2));
    core::Surface s = study.commTimeSurface({6.3, 0.1}, {3.3});
    for (auto &row : s.values) {
        for (double v : row) {
            EXPECT_GE(v, 0.0);
            EXPECT_LT(v, 1.0);
        }
    }
    // Lower bandwidth -> larger communication share.
    EXPECT_LE(s.values[0][0], s.values[0][1]);
}

TEST(StudyProperties, ComputeAccountingPopulated)
{
    auto v = findVariant("water", "opt");
    core::RunResult r = v.run(smallScenario(2, 2));
    ASSERT_EQ(r.computePerRank.size(), 4u);
    for (double c : r.computePerRank)
        EXPECT_GT(c, 0.0);
    EXPECT_GE(r.loadImbalance(), 1.0);
    // Water's static decomposition is roughly balanced; at only 4
    // ranks the all-to-half convention is inherently a little uneven
    // (the "opposite" rank pair is computed by one side only).
    EXPECT_LT(r.loadImbalance(), 1.5);
}

TEST(StudyProperties, LoadImbalanceMetric)
{
    core::RunResult r;
    EXPECT_DOUBLE_EQ(r.loadImbalance(), 0.0);
    r.computePerRank = {1.0, 1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(r.loadImbalance(), 1.0);
    r.computePerRank = {3.0, 1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(r.loadImbalance(), 2.0);
    r.computePerRank = {0.0, 0.0};
    EXPECT_DOUBLE_EQ(r.loadImbalance(), 0.0);
}

TEST(StudyProperties, DeterministicAcrossRepeatedRuns)
{
    auto v = findVariant("awari", "opt");
    core::Scenario s = smallScenario(2, 2, 1.0, 10.0);
    auto a = v.run(s);
    auto b = v.run(s);
    EXPECT_DOUBLE_EQ(a.runTime, b.runTime);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.traffic.inter.messages, b.traffic.inter.messages);
    EXPECT_EQ(a.traffic.inter.bytes, b.traffic.inter.bytes);
}

} // namespace
} // namespace tli::apps
