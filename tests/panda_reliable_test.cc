/**
 * @file
 * The reliable-delivery protocol (panda::Reliable): acknowledgements,
 * timeout-driven retransmission with exponential backoff, duplicate
 * suppression, in-order handoff, and the guarantee that every message
 * survives loss and outages — just slower.
 */

#include "panda/reliable.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.h"
#include "panda/panda.h"
#include "sim/simulation.h"

namespace tli::panda {
namespace {

net::FabricParams
simpleParams()
{
    net::FabricParams p;
    p.local.latency = 1e-3;
    p.local.bandwidth = 1e6;
    p.local.perMessageCost = 0;
    p.wide.latency = 1.0;
    p.wide.bandwidth = 1e3;
    p.wide.perMessageCost = 0;
    return p;
}

/** Fast links: round trips in milliseconds, so backoff is visible. */
net::FabricParams
fastParams()
{
    net::FabricParams p;
    p.local.latency = 1e-6;
    p.local.bandwidth = 1e9;
    p.local.perMessageCost = 0;
    p.wide.latency = 1e-3;
    p.wide.bandwidth = 1e9;
    p.wide.perMessageCost = 0;
    return p;
}

TEST(Reliable, DeliversEverythingInOrderUnderHeavyLoss)
{
    sim::Simulation sim;
    net::FabricParams p = fastParams();
    p.impairments.lossRate = 0.3;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);

    constexpr int n = 50;
    std::vector<int> order;
    for (int i = 0; i < n; ++i)
        rel.send(0, 2, 100, [&order, i] { order.push_back(i); });
    sim.run();

    ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(order[i], i) << "out-of-order handoff";
    net::DeliveryStats d = fab.stats().delivery;
    // 30% loss over 50 frames forces recovery work...
    EXPECT_GT(d.retransmits, 0u);
    // ...and every frame is eventually acknowledged exactly once.
    EXPECT_EQ(d.acks, static_cast<std::uint64_t>(n));
    EXPECT_GT(fab.stats().wanLossDrops, 0u);
}

TEST(Reliable, DeliversMoveOnlyActionsOnceUnderLoss)
{
    // The delivery action may own what it delivers (a message
    // envelope, here a unique_ptr): retransmitted copies share one
    // record, and only the first copy to arrive runs the action.
    sim::Simulation sim;
    net::FabricParams p = fastParams();
    p.impairments.lossRate = 0.4;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);

    constexpr int n = 40;
    std::vector<int> got;
    for (int i = 0; i < n; ++i) {
        auto value = std::make_unique<int>(i);
        rel.send(0, 3, 64, [&got, value = std::move(value)] {
            got.push_back(*value);
        });
    }
    // The intra-cluster path takes the same move-only action.
    auto local = std::make_unique<int>(-1);
    rel.send(0, 1, 64,
             [&got, local = std::move(local)] { got.push_back(*local); });
    sim.run();

    ASSERT_EQ(got.size(), static_cast<std::size_t>(n + 1));
    EXPECT_EQ(got.front(), -1); // local delivery arrives first
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(got[i + 1], i);
    EXPECT_GT(fab.stats().delivery.retransmits, 0u);
}

TEST(Reliable, HeavyLossProducesDuplicateTraffic)
{
    // Lost acks leave the sender retransmitting frames the receiver
    // already has: the receiver suppresses the copies and re-acks.
    sim::Simulation sim;
    net::FabricParams p = fastParams();
    p.impairments.lossRate = 0.5;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);

    constexpr int n = 100;
    int delivered = 0;
    for (int i = 0; i < n; ++i)
        rel.send(0, 2, 100, [&delivered] { ++delivered; });
    sim.run();

    EXPECT_EQ(delivered, n);
    net::DeliveryStats d = fab.stats().delivery;
    EXPECT_GT(d.duplicates + d.duplicateAcks, 0u);
    EXPECT_EQ(d.acks, static_cast<std::uint64_t>(n));
}

TEST(Reliable, TimeoutRetransmitCrossesAnOutage)
{
    sim::Simulation sim;
    net::FabricParams p = simpleParams();
    // The first copy hits the [0, 0.5 s) blackout and is refused; the
    // retransmission timer fires well after it and succeeds.
    p.impairments.outageStart = 0.0;
    p.impairments.outageDuration = 0.5;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);

    double arrived = -1;
    rel.send(0, 2, 1000, [&] { arrived = sim.now(); });
    sim.run();

    EXPECT_GT(arrived, 0.5);
    net::FabricStats s = fab.stats();
    EXPECT_GE(s.delivery.retransmits, 1u);
    EXPECT_GE(s.wanOutageDrops, 1u);
    EXPECT_EQ(s.delivery.acks, 1u);
}

TEST(Reliable, BackoffRetriesUntilALongOutageEnds)
{
    sim::Simulation sim;
    net::FabricParams p = fastParams();
    // Round trips are ~2 ms, the blackout lasts 100 ms: recovery needs
    // several doubling retries, and must not give up.
    p.impairments.outageStart = 0.0;
    p.impairments.outageDuration = 0.1;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);

    double arrived = -1;
    rel.send(0, 2, 100, [&] { arrived = sim.now(); });
    sim.run();

    EXPECT_GT(arrived, 0.1);
    EXPECT_GE(fab.stats().delivery.retransmits, 3u);
}

TEST(Reliable, LocalTrafficBypassesTheProtocol)
{
    sim::Simulation sim;
    net::FabricParams p = simpleParams();
    p.impairments.lossRate = 0.999999;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);

    bool delivered = false;
    rel.send(0, 1, 1000, [&] { delivered = true; });
    sim.run();

    EXPECT_TRUE(delivered);
    net::FabricStats s = fab.stats();
    // No header surcharge, no protocol counters: the local fast path
    // is exactly the raw fabric.
    EXPECT_EQ(s.intra.bytes, 1000u);
    EXPECT_EQ(s.delivery.acks, 0u);
    EXPECT_EQ(s.delivery.retransmits, 0u);
}

TEST(Reliable, InitialRtoCoversARoundTrip)
{
    sim::Simulation sim;
    net::FabricParams p = simpleParams();
    p.impairments.lossRate = 0.01;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Reliable rel(sim, fab);
    // A timer shorter than one data + ack round trip would retransmit
    // every single frame spuriously.
    EXPECT_GT(rel.initialRto(1000), 2 * p.wide.latency);
}

TEST(Reliable, LossyRunsAreBitwiseDeterministic)
{
    auto run = [] {
        sim::Simulation sim;
        net::FabricParams p = fastParams();
        p.impairments.lossRate = 0.4;
        net::Fabric fab(sim, net::Topology(2, 2), p);
        Reliable rel(sim, fab);
        double last = -1;
        for (int i = 0; i < 40; ++i)
            rel.send(0, 2, 100, [&sim, &last] { last = sim.now(); });
        sim.run();
        net::DeliveryStats d = fab.stats().delivery;
        return std::tuple(last, d.retransmits, d.duplicates,
                          d.duplicateAcks);
    };
    EXPECT_EQ(run(), run());
}

TEST(Panda, ReliableLayerActivatesOnlyWhenImpaired)
{
    sim::Simulation sim;
    net::Fabric clean(sim, net::Topology(2, 2), simpleParams());
    Panda plain(sim, clean);
    EXPECT_EQ(plain.reliable(), nullptr);

    net::FabricParams p = simpleParams();
    p.impairments.lossRate = 0.1;
    net::Fabric lossy(sim, net::Topology(2, 2), p);
    Panda impaired(sim, lossy);
    EXPECT_NE(impaired.reliable(), nullptr);
}

TEST(Panda, MessagingSurvivesLossEndToEnd)
{
    sim::Simulation sim;
    net::FabricParams p = fastParams();
    p.impairments.lossRate = 0.4;
    net::Fabric fab(sim, net::Topology(2, 2), p);
    Panda panda(sim, fab);

    constexpr int tag = 7;
    for (int i = 0; i < 20; ++i)
        panda.send(0, 2, tag, 256, i);
    sim.run();

    // Every payload arrives, in send order, despite 40% frame loss.
    for (int i = 0; i < 20; ++i) {
        auto m = panda.tryRecv(2, tag);
        ASSERT_TRUE(m.has_value()) << "message " << i << " lost";
        EXPECT_EQ(m->as<int>(), i);
    }
    EXPECT_FALSE(panda.tryRecv(2, tag).has_value());
    EXPECT_GT(fab.stats().delivery.retransmits, 0u);
}

} // namespace
} // namespace tli::panda
