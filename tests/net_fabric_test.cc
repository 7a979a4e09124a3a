/**
 * @file
 * Unit tests for the routed two-layer fabric: timing, contention, and
 * traffic accounting.
 */

#include "net/fabric.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/config.h"
#include "sim/simulation.h"

namespace tli::net {
namespace {

FabricParams
simpleParams()
{
    FabricParams p;
    p.local.latency = 1e-3;
    p.local.bandwidth = 1e6; // 1 MB/s
    p.local.perMessageCost = 0;
    p.wide.latency = 1.0;
    p.wide.bandwidth = 1e3; // 1 KB/s
    p.wide.perMessageCost = 0;
    return p;
}

TEST(Fabric, IntraClusterTiming)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 2), simpleParams());
    double arrived = -1;
    fab.send(0, 1, 1000, [&] { arrived = sim.now(); });
    sim.run();
    // 1000 B / 1 MB/s = 1 ms serialize + 1 ms latency.
    EXPECT_DOUBLE_EQ(arrived, 0.002);
    EXPECT_EQ(fab.stats().intra.messages, 1u);
    EXPECT_EQ(fab.stats().inter.messages, 0u);
}

TEST(Fabric, InterClusterTiming)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 2), simpleParams());
    double arrived = -1;
    fab.send(0, 2, 1000, [&] { arrived = sim.now(); });
    sim.run();
    // NIC hop: 1 ms + 1 ms latency = 2 ms at gateway.
    // WAN: 1000 B / 1 KB/s = 1 s serialize + 1 s latency = 2 s.
    // Inbound gateway (neutral capacity here): final 1 ms local hop.
    EXPECT_NEAR(arrived, 0.002 + 2.0 + 0.001, 1e-7);
    EXPECT_EQ(fab.stats().inter.messages, 1u);
    EXPECT_EQ(fab.stats().inter.bytes, 1000u);
}

TEST(Fabric, SelfSendIsCheap)
{
    sim::Simulation sim;
    FabricParams p = simpleParams();
    p.local.perMessageCost = 1e-4;
    Fabric fab(sim, Topology(1, 2), p);
    double arrived = -1;
    fab.send(1, 1, 1 << 20, [&] { arrived = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(arrived, 1e-4);
}

TEST(Fabric, WanLinkContention)
{
    // Two senders in cluster 0 to cluster 1 share one WAN link: the
    // second transfer serializes behind the first.
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 2), simpleParams());
    std::vector<double> arrivals;
    fab.send(0, 2, 1000, [&] { arrivals.push_back(sim.now()); });
    fab.send(1, 3, 1000, [&] { arrivals.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_NEAR(arrivals[0], 0.002 + 2.0 + 0.001, 1e-7);
    // Second message reaches the gateway at the same 2 ms, but the WAN
    // link is busy until 1 s + 2 ms; it then serializes for another 1 s.
    EXPECT_NEAR(arrivals[1], 0.002 + 1.0 + 1.0 + 1.0 + 0.001, 1e-7);
}

TEST(Fabric, DistinctClusterPairsDoNotContend)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(3, 1), simpleParams());
    std::vector<double> arrivals(2, -1);
    // Disjoint cluster pairs (0->1 and 2->0): no shared WAN link, NIC,
    // or gateway egress, so the transfers proceed fully in parallel.
    fab.send(0, 1, 1000, [&] { arrivals[0] = sim.now(); });
    fab.send(2, 0, 1000, [&] { arrivals[1] = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(arrivals[0], arrivals[1]);
}

TEST(Fabric, NicContentionWithinCluster)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(1, 3), simpleParams());
    std::vector<double> arrivals;
    fab.send(0, 1, 1000, [&] { arrivals.push_back(sim.now()); });
    fab.send(0, 2, 1000, [&] { arrivals.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_DOUBLE_EQ(arrivals[0], 0.002);
    EXPECT_DOUBLE_EQ(arrivals[1], 0.003); // serialized on sender NIC
}

TEST(Fabric, PerClusterOutboundAccounting)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 2), simpleParams());
    fab.send(0, 2, 100, [] {});
    fab.send(1, 3, 200, [] {});
    fab.send(2, 0, 400, [] {});
    sim.run();
    ASSERT_EQ(fab.stats().interPerCluster.size(), 2u);
    // The fabric accounts raw bytes as passed; headers are a Panda
    // concern.
    EXPECT_EQ(fab.stats().interPerCluster[0].messages, 2u);
    EXPECT_EQ(fab.stats().interPerCluster[0].bytes, 300u);
    EXPECT_EQ(fab.stats().interPerCluster[1].messages, 1u);
    EXPECT_EQ(fab.stats().interPerCluster[1].bytes, 400u);
}

TEST(Fabric, ResetStatsClearsCounters)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 1), simpleParams());
    fab.send(0, 1, 100, [] {});
    sim.run();
    EXPECT_GT(fab.stats().inter.messages, 0u);
    fab.resetStats();
    EXPECT_EQ(fab.stats().inter.messages, 0u);
    EXPECT_EQ(fab.stats().intra.messages, 0u);
    EXPECT_EQ(fab.stats().interPerCluster[0].messages, 0u);
}

TEST(Fabric, MulticastLocalSingleSerialization)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(1, 4), simpleParams());
    std::vector<std::pair<Rank, double>> got;
    fab.multicastLocal(0, {1, 2, 3}, 1000,
                       [&](Rank r) { got.emplace_back(r, sim.now()); });
    sim.run();
    ASSERT_EQ(got.size(), 3u);
    for (auto &[r, t] : got)
        EXPECT_DOUBLE_EQ(t, 0.002); // all at once, one serialization
    EXPECT_EQ(fab.stats().intra.messages, 1u);
}

TEST(Fabric, MulticastToClusterCrossesWanOnce)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 4), simpleParams());
    std::vector<double> times;
    fab.multicastToCluster(0, 1, {4, 5, 6, 7}, 1000,
                           [&](Rank) { times.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(times.size(), 4u);
    for (double t : times)
        EXPECT_NEAR(t, 0.002 + 2.0 + 0.001, 1e-7);
    EXPECT_EQ(fab.stats().inter.messages, 1u);
    EXPECT_EQ(fab.stats().inter.bytes, 1000u);
}

TEST(Fabric, GatewayCapacityThrottlesAggregateTraffic)
{
    // A finite gateway serializes all wide-area traffic in and out of
    // its cluster, even across distinct WAN links.
    sim::Simulation sim;
    FabricParams p = simpleParams();
    p.wide.bandwidth = 1e9; // WAN links effectively infinite
    p.wide.latency = 0;
    p.gateway.bandwidth = 1e3; // 1 KB/s gateway processing
    Fabric fab(sim, Topology(3, 1), p);
    std::vector<double> arrivals;
    // Rank 0 sends 1000 B to both other clusters: distinct WAN links,
    // same outbound gateway.
    fab.send(0, 1, 1000, [&] { arrivals.push_back(sim.now()); });
    fab.send(0, 2, 1000, [&] { arrivals.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // First: 2 ms NIC + 1 s gateway; second queues another 1 s.
    EXPECT_GT(arrivals[0], 1.0);
    EXPECT_GT(arrivals[1], 2.0);
}

TEST(Config, GatewayMatchesDasTcpThroughput)
{
    LinkParams p = Profile::gatewayLink();
    EXPECT_DOUBLE_EQ(p.bandwidth, 14e6);
    EXPECT_GT(p.perMessageCost, 0.0);
}

TEST(Fabric, StatsSnapshotCoversEveryLinkClass)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 2), simpleParams());
    fab.send(0, 2, 500, [] {});
    fab.send(1, 0, 300, [] {}); // intra only
    sim.run();
    FabricStats s = fab.stats();
    EXPECT_EQ(s.clusters, 2);
    EXPECT_EQ(s.wanShape, WanShape::fullyConnected());
    EXPECT_EQ(s.wanLink(0, 1).messages, 1u);
    EXPECT_EQ(s.wanLink(0, 1).bytes, 500u);
    EXPECT_EQ(s.wanLink(1, 0).messages, 0u);
    ASSERT_EQ(s.nics.size(), 4u);
    EXPECT_EQ(s.nics[0].messages, 1u);
    EXPECT_EQ(s.nics[1].messages, 1u);
    ASSERT_EQ(s.gatewayOut.size(), 2u);
    EXPECT_EQ(s.gatewayOut[0].messages, 1u);
    EXPECT_EQ(s.gatewayIn[1].messages, 1u);
    // The fully connected mesh labels each directed pair link.
    ASSERT_EQ(s.wanLinks.size(), 4u);
    const LinkStats &direct = s.wanLink(0, 1);
    bool found = false;
    for (const WanLinkEntry &e : s.wanLinks) {
        if (e.a == 0 && e.b == 1) {
            EXPECT_STREQ(e.kind, "pair");
            EXPECT_EQ(e.stats.messages, direct.messages);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Fabric, MaxWanUtilizationReflectsBusyLink)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 1), simpleParams());
    // 1000 B at 1 KB/s = 1 s of occupancy.
    fab.send(0, 1, 1000, [] {});
    sim.run();
    double elapsed = sim.now();
    FabricStats s = fab.stats();
    double util = s.maxWanUtilization(elapsed);
    EXPECT_GT(util, 0.2);
    EXPECT_LE(util, 1.0);
    EXPECT_DOUBLE_EQ(s.maxWanUtilization(0), 0.0);
}

TEST(Fabric, StatsAccumulateWanTransitForInterMessages)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(2, 1), simpleParams());
    fab.send(0, 1, 1000, [] {}); // 1 s serialize + 1 s latency
    fab.send(1, 1, 400, [] {});  // loopback: no WAN contribution
    sim.run();
    FabricStats s = fab.stats();
    EXPECT_NEAR(s.wanTransit, 2.0, 1e-9);
    fab.resetStats();
    EXPECT_DOUBLE_EQ(fab.stats().wanTransit, 0.0);
}

FabricParams
topoParams(const WanShape &shape)
{
    FabricParams p = simpleParams();
    p.wanShape = shape;
    return p;
}

TEST(Fabric, StarTwoSegmentTiming)
{
    // A star transfer serializes twice (up-link, then down-link) but
    // the two segments split the one-way propagation latency.
    sim::Simulation sim;
    Fabric fab(sim, Topology(4, 1), topoParams(WanShape::star()));
    double arrived = -1;
    fab.send(0, 2, 1000, [&] { arrived = sim.now(); });
    sim.run();
    // 2 ms NIC; 2 x (1 s serialize + 0.5 s latency); 1 ms final hop.
    EXPECT_NEAR(arrived, 0.002 + 3.0 + 0.001, 1e-7);
}

TEST(Fabric, RingTwoHopStoreAndForwardTiming)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(4, 1), topoParams(WanShape::ring()));
    double arrived = -1;
    fab.send(0, 2, 1000, [&] { arrived = sim.now(); });
    sim.run();
    // Opposite corner of a 4-ring: two full store-and-forward hops of
    // 1 s serialize + 1 s latency each.
    EXPECT_NEAR(arrived, 0.002 + 4.0 + 0.001, 1e-7);
}

TEST(Fabric, WanLinkStatsStarReportsUpLink)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(4, 1), topoParams(WanShape::star()));
    fab.send(0, 1, 500, [] {});
    fab.send(0, 2, 300, [] {});
    sim.run();
    // Both transfers climb cluster 0's up-link, whichever cluster they
    // descend to.
    FabricStats s = fab.stats();
    EXPECT_EQ(s.wanLink(0, 1).messages, 2u);
    EXPECT_EQ(s.wanLink(0, 1).bytes, 800u);
    EXPECT_EQ(&s.wanLink(0, 2), &s.wanLink(0, 1));
    EXPECT_EQ(s.wanLink(1, 0).messages, 0u);
    // Star entries are labeled up [0, C) then down [C, 2C).
    ASSERT_EQ(s.wanLinks.size(), 8u);
    EXPECT_STREQ(s.wanLinks[0].kind, "up");
    EXPECT_STREQ(s.wanLinks[4].kind, "down");
    EXPECT_EQ(s.wanLinks[0].a, 0);
    EXPECT_EQ(s.wanLinks[0].b, invalidCluster);
}

TEST(Fabric, WanLinkStatsRingReportsFirstHopOfShorterArc)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(4, 1), topoParams(WanShape::ring()));
    fab.send(0, 1, 500, [] {}); // clockwise arc
    fab.send(0, 3, 300, [] {}); // counterclockwise arc
    sim.run();
    FabricStats s = fab.stats();
    EXPECT_EQ(s.wanLink(0, 1).messages, 1u);
    EXPECT_EQ(s.wanLink(0, 1).bytes, 500u);
    EXPECT_EQ(s.wanLink(0, 3).messages, 1u);
    EXPECT_EQ(s.wanLink(0, 3).bytes, 300u);
    // The opposite corner ties; clockwise wins, so its first hop is
    // the same physical link as the 0 -> 1 route.
    EXPECT_EQ(&s.wanLink(0, 2), &s.wanLink(0, 1));
    EXPECT_STREQ(s.wanLinks[0].kind, "cw");
    EXPECT_STREQ(s.wanLinks[4].kind, "ccw");
}

TEST(FabricDeathTest, WanLinkRejectsInvalidPairs)
{
    sim::Simulation sim;
    Fabric fab(sim, Topology(4, 1), simpleParams());
    FabricStats s = fab.stats();
    EXPECT_DEATH((void)s.wanLink(1, 1), "distinct");
    EXPECT_DEATH((void)s.wanLink(0, 4), "out of range");
    EXPECT_DEATH((void)s.wanLink(-1, 2), "out of range");
}

TEST(Fabric, InterleavedP2pAndMulticastDeliverInSendOrder)
{
    // Heavy jitter (+-0.8 s on 0.1 s message spacing) reorders raw
    // arrivals on the same (src, dst) pair almost surely; the per-pair
    // clamp must restore send order across both delivery paths. The
    // seed recorded multicast deliveries into the ordering map twice,
    // once before clamping, corrupting the horizon for later p2p
    // sends.
    sim::Simulation sim;
    FabricParams p = simpleParams();
    p.wanJitter = 0.8;
    Fabric fab(sim, Topology(2, 2), p);
    constexpr int rounds = 6;
    std::vector<double> at(2 * rounds, -1);
    for (int i = 0; i < rounds; ++i) {
        const int p2p = 2 * i;
        const int mc = 2 * i + 1;
        fab.send(0, 2, 100, [&at, &sim, p2p] { at[p2p] = sim.now(); });
        fab.multicastToCluster(0, 1, {2, 3}, 100,
                               [&at, &sim, mc](Rank r) {
                                   if (r == 2)
                                       at[mc] = sim.now();
                               });
    }
    sim.run();
    EXPECT_GE(at[0], 0.0);
    for (int i = 1; i < 2 * rounds; ++i)
        EXPECT_GE(at[i], at[i - 1]) << "send #" << i << " overtook";
}

TEST(Config, MyrinetMatchesPaperNumbers)
{
    LinkParams p = Profile::myrinetLink();
    // 20 us application-level one-way latency total.
    EXPECT_DOUBLE_EQ(p.latency + p.perMessageCost, 20e-6);
    EXPECT_DOUBLE_EQ(p.bandwidth, 50e6);
}

TEST(Config, FigureGridsMatchPaper)
{
    EXPECT_EQ(figureBandwidthsMBs().size(), 6u);
    EXPECT_EQ(figureLatenciesMs().size(), 7u);
    EXPECT_DOUBLE_EQ(figureBandwidthsMBs().front(), 6.3);
    EXPECT_DOUBLE_EQ(figureBandwidthsMBs().back(), 0.03);
    EXPECT_DOUBLE_EQ(figureLatenciesMs().front(), 0.5);
    EXPECT_DOUBLE_EQ(figureLatenciesMs().back(), 300.0);
}

} // namespace
} // namespace tli::net
