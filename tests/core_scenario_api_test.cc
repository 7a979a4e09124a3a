/**
 * @file
 * The Scenario construction API: the fluent builder, validate() with
 * one negative case per condition, the impairment knobs' effect on
 * fingerprint() and fabricParams(), and checked()'s fatal path.
 */

#include "core/scenario.h"

#include <gtest/gtest.h>

namespace tli::core {
namespace {

TEST(ScenarioBuilder, BuildsFromDefaults)
{
    Scenario s = ScenarioBuilder()
                     .clusters(3)
                     .procsPerCluster(5)
                     .wanBandwidth(0.95)
                     .wanLatency(12.5)
                     .wanJitter(0.25)
                     .wanTopology(net::WanShape::ring())
                     .problemScale(0.5)
                     .seed(7)
                     .build();
    EXPECT_EQ(s.clusters, 3);
    EXPECT_EQ(s.procsPerCluster, 5);
    EXPECT_DOUBLE_EQ(s.wanBandwidthMBs, 0.95);
    EXPECT_DOUBLE_EQ(s.wanLatencyMs, 12.5);
    EXPECT_DOUBLE_EQ(s.wanJitterFraction, 0.25);
    EXPECT_EQ(s.wanShape, net::WanShape::ring());
    EXPECT_DOUBLE_EQ(s.problemScale, 0.5);
    EXPECT_EQ(s.seed, 7u);
    EXPECT_FALSE(s.impaired());
}

TEST(ScenarioBuilder, WithDerivesWithoutMutatingTheBase)
{
    Scenario base = ScenarioBuilder().clusters(2).build();
    Scenario derived = base.with()
                           .wanLoss(0.02)
                           .wanOutage(1.0, 0.25, 3.0)
                           .wanOutageQueue()
                           .build();
    EXPECT_EQ(derived.clusters, 2);
    EXPECT_DOUBLE_EQ(derived.wanLossRate, 0.02);
    EXPECT_DOUBLE_EQ(derived.wanOutageStartS, 1.0);
    EXPECT_DOUBLE_EQ(derived.wanOutageDurationS, 0.25);
    EXPECT_DOUBLE_EQ(derived.wanOutagePeriodS, 3.0);
    EXPECT_TRUE(derived.wanOutageQueue);
    EXPECT_TRUE(derived.impaired());
    // The base is untouched by the derivation.
    EXPECT_FALSE(base.impaired());
    EXPECT_TRUE(base != derived);
}

TEST(ScenarioBuilder, ErrorExposesValidationWithoutTerminating)
{
    ScenarioBuilder b;
    b.wanLoss(1.5);
    std::string err = b.error();
    EXPECT_NE(err.find("wan-loss"), std::string::npos) << err;
    b.wanLoss(0.02);
    EXPECT_EQ(b.error(), "");
}

TEST(ScenarioValidate, AcceptsTheDefaults)
{
    EXPECT_EQ(Scenario{}.validate(), "");
}

/** One mutation per validate() condition; each must be rejected. */
TEST(ScenarioValidate, RejectsEachBadKnob)
{
    auto fails = [](auto mutate) {
        Scenario s;
        mutate(s);
        return !s.validate().empty();
    };
    EXPECT_TRUE(fails([](Scenario &s) { s.clusters = 0; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.procsPerCluster = 0; }));
    // The rank count must fit a Rank: 2^32 ranks overflow it.
    EXPECT_TRUE(fails([](Scenario &s) {
        s.clusters = 65536;
        s.procsPerCluster = 65536;
    }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanBandwidthMBs = 0; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanLatencyMs = -1; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanJitterFraction = 1.5; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanLossRate = 1.0; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanLossRate = -0.1; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanOutageStartS = -1; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanOutageDurationS = -1; }));
    EXPECT_TRUE(fails([](Scenario &s) { s.wanOutagePeriodS = -1; }));
    // A period without a duration describes nothing.
    EXPECT_TRUE(fails([](Scenario &s) { s.wanOutagePeriodS = 5; }));
    // Windows must fit inside the period.
    EXPECT_TRUE(fails([](Scenario &s) {
        s.wanOutageDurationS = 2;
        s.wanOutagePeriodS = 1;
    }));
    EXPECT_TRUE(fails([](Scenario &s) { s.problemScale = 0; }));
}

TEST(ScenarioValidate, RejectsInconsistentWanShapes)
{
    // Dims whose product misses the cluster count.
    Scenario s = Scenario{};
    s.clusters = 4;
    s.wanShape = net::WanShape::torus({2, 4});
    EXPECT_NE(s.validate().find("product"), std::string::npos)
        << s.validate();
    // Dims on a shape that has none.
    s = Scenario{};
    s.wanShape = net::WanShape(net::WanShape::Kind::ring, {2, 2});
    EXPECT_NE(s.validate().find("wan-dims"), std::string::npos)
        << s.validate();
    // Torus/mesh without dims at all.
    s = Scenario{};
    s.wanShape = net::WanShape(net::WanShape::Kind::torus);
    EXPECT_NE(s.validate().find("requires wan-dims"),
              std::string::npos)
        << s.validate();
    // Degenerate extents.
    s = Scenario{};
    s.clusters = 4;
    s.wanShape = net::WanShape::mesh({4, 1});
    EXPECT_NE(s.validate().find(">= 2"), std::string::npos)
        << s.validate();
    // The builder and checked() report the identical spelling.
    Scenario bad;
    bad.clusters = 4;
    bad.wanShape = net::WanShape::torus({2, 4});
    EXPECT_EQ(ScenarioBuilder(bad).error(), bad.validate());
    // A consistent torus passes.
    Scenario ok = ScenarioBuilder()
                      .clusters(8)
                      .wanTopology(net::WanShape::torus({2, 2, 2}))
                      .build();
    EXPECT_EQ(ok.validate(), "");
}

TEST(ScenarioApiDeathTest, CheckedIsFatalOnBadWanDims)
{
    Scenario s;
    s.clusters = 4;
    s.wanShape = net::WanShape::torus({3, 2});
    EXPECT_DEATH((void)s.checked(), "product");
}

TEST(ScenarioBuilder, WanDimsComposeWithTopologyInEitherOrder)
{
    Scenario a = ScenarioBuilder()
                     .clusters(8)
                     .wanTopology(net::WanShape(
                         net::WanShape::Kind::torus))
                     .wanDims({2, 2, 2})
                     .build();
    EXPECT_EQ(a.wanShape, net::WanShape::torus({2, 2, 2}));
    // wanTopology() replaces dims wholesale (the shape is a value).
    Scenario b = a.with()
                     .wanTopology(net::WanShape::fullyConnected())
                     .build();
    EXPECT_TRUE(b.wanShape.dims().empty());
}

TEST(ScenarioValidate, MessagesNameTheOffendingKnob)
{
    Scenario s;
    s.wanLossRate = 1.5;
    EXPECT_NE(s.validate().find("wan-loss"), std::string::npos);
    s = Scenario{};
    s.wanOutageDurationS = 2;
    s.wanOutagePeriodS = 1;
    EXPECT_NE(s.validate().find("wan-outage-period"),
              std::string::npos);
}

TEST(ScenarioApiDeathTest, CheckedIsFatalOnInvalid)
{
    Scenario s;
    s.wanLossRate = 1.5;
    EXPECT_DEATH((void)s.checked(), "wan-loss");
    EXPECT_DEATH((void)ScenarioBuilder().clusters(0).build(),
                 "clusters");
}

TEST(ScenarioFingerprint, ImpairmentKnobsAppendOnlyWhenSet)
{
    // A zero-impairment scenario hashes exactly as before the knobs
    // existed (the pinned golden in the fingerprint test covers the
    // default; this covers the round trip).
    Scenario base;
    Scenario toggled;
    toggled.wanLossRate = 0.02;
    EXPECT_NE(base.fingerprint(), toggled.fingerprint());
    toggled.wanLossRate = 0.0;
    EXPECT_EQ(base.fingerprint(), toggled.fingerprint());

    auto differs = [&](auto mutate) {
        Scenario s;
        mutate(s);
        return s.fingerprint() != base.fingerprint();
    };
    EXPECT_TRUE(differs([](Scenario &s) { s.wanLossRate = 0.01; }));
    EXPECT_TRUE(differs([](Scenario &s) {
        s.wanOutageStartS = 1;
        s.wanOutageDurationS = 1;
    }));
    EXPECT_TRUE(differs([](Scenario &s) { s.wanOutageQueue = true; }));
    // Distinct impaired scenarios hash apart from each other too.
    Scenario drop;
    drop.wanOutageDurationS = 1;
    Scenario queue = drop;
    queue.wanOutageQueue = true;
    EXPECT_NE(drop.fingerprint(), queue.fingerprint());
}

TEST(ScenarioFabricParams, ImpairedScenarioConfiguresTheFabric)
{
    Scenario s = ScenarioBuilder()
                     .wanLoss(0.02)
                     .wanOutage(1.0, 0.5, 4.0)
                     .wanOutageQueue()
                     .build();
    net::FabricParams p = s.fabricParams();
    EXPECT_TRUE(p.impairments.active());
    EXPECT_DOUBLE_EQ(p.impairments.lossRate, 0.02);
    EXPECT_DOUBLE_EQ(p.impairments.outageStart, 1.0);
    EXPECT_DOUBLE_EQ(p.impairments.outageDuration, 0.5);
    EXPECT_DOUBLE_EQ(p.impairments.outagePeriod, 4.0);
    EXPECT_EQ(p.impairments.outagePolicy, net::OutagePolicy::queue);

    // The loss stream is seeded from the scenario seed but on a
    // different derivation than jitter, so the streams are independent.
    Scenario reseeded = s.with().seed(43).build();
    EXPECT_NE(reseeded.fabricParams().impairments.lossSeed,
              p.impairments.lossSeed);
    EXPECT_NE(p.impairments.lossSeed, p.jitterSeed);
}

TEST(ScenarioFabricParams, UnimpairedScenarioStaysClean)
{
    Scenario s;
    EXPECT_FALSE(s.fabricParams().impairments.active());
    // All-Myrinet ignores the wide-area knobs entirely.
    Scenario m = s.with().wanLoss(0.5).allMyrinet().build();
    EXPECT_FALSE(m.fabricParams().impairments.active());
}

TEST(ScenarioDescribe, MentionsImpairments)
{
    Scenario s = ScenarioBuilder().wanLoss(0.02).build();
    EXPECT_NE(s.describe().find("loss"), std::string::npos);
    Scenario o = ScenarioBuilder().wanOutage(0, 0.5).build();
    EXPECT_NE(o.describe().find("outage"), std::string::npos);
}

} // namespace
} // namespace tli::core
