/**
 * @file
 * Integration tests for the Panda messaging layer on the two-layer
 * fabric: unicast, RPC, multicast, ordering.
 */

#include "panda/panda.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/config.h"
#include "sim/simulation.h"

namespace tli::panda {
namespace {

struct World
{
    sim::Simulation sim;
    net::Topology topo;
    net::Fabric fabric;
    Panda panda;

    World(int clusters, int procs,
          net::FabricParams p = net::Profile::das(6.0, 0.5).params())
        : topo(clusters, procs), fabric(sim, topo, p), panda(sim, fabric)
    {
    }
};

TEST(Panda, UnicastDelivery)
{
    World w(2, 2);
    int got = 0;
    Rank from = -1;
    auto receiver = [&]() -> sim::Task<void> {
        Message m = co_await w.panda.recv(3, 7);
        got = m.as<int>();
        from = m.src;
    };
    w.sim.spawn(receiver());
    w.panda.send(0, 3, 7, 100, 1234);
    w.sim.run();
    EXPECT_EQ(got, 1234);
    EXPECT_EQ(from, 0);
}

TEST(Panda, WireSizeIncludesHeader)
{
    World w(2, 1);
    w.panda.send(0, 1, 0, 100, 0);
    w.sim.run();
    EXPECT_EQ(w.fabric.stats().inter.bytes, 100 + headerBytes);
}

TEST(Panda, TagsAreIndependent)
{
    World w(1, 2);
    std::vector<int> order;
    auto receiver = [&]() -> sim::Task<void> {
        Message a = co_await w.panda.recv(1, 5);
        order.push_back(a.as<int>());
        Message b = co_await w.panda.recv(1, 6);
        order.push_back(b.as<int>());
    };
    w.sim.spawn(receiver());
    // Send tag-6 first; receiver waits on tag 5 first and must not
    // consume the tag-6 message.
    w.panda.send(0, 1, 6, 10, 66);
    w.panda.send(0, 1, 5, 10, 55);
    w.sim.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 55);
    EXPECT_EQ(order[1], 66);
}

TEST(Panda, SameLinkFifoOrdering)
{
    // Messages from one sender to one receiver on one tag arrive in
    // send order (they serialize over the same links).
    World w(2, 2);
    std::vector<int> got;
    auto receiver = [&]() -> sim::Task<void> {
        for (int i = 0; i < 20; ++i) {
            Message m = co_await w.panda.recv(2, 1);
            got.push_back(m.as<int>());
        }
    };
    w.sim.spawn(receiver());
    for (int i = 0; i < 20; ++i)
        w.panda.send(0, 2, 1, 100, i);
    w.sim.run();
    ASSERT_EQ(got.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Panda, RpcRoundTrip)
{
    World w(2, 2);
    auto server = [&]() -> sim::Task<void> {
        Message req = co_await w.panda.recv(3, 9);
        int x = req.as<int>();
        w.panda.reply(3, req, 8, x * x);
    };
    int answer = 0;
    double elapsed = 0;
    auto client = [&]() -> sim::Task<void> {
        Message rep = co_await w.panda.rpc(0, 3, 9, 8, 12);
        answer = rep.as<int>();
        elapsed = w.sim.now();
    };
    w.sim.spawn(server());
    w.sim.spawn(client());
    w.sim.run();
    EXPECT_EQ(answer, 144);
    // Round trip over the WAN: at least 2x 0.5 ms one-way latency.
    EXPECT_GT(elapsed, 1e-3);
}

TEST(Panda, ManyConcurrentRpcs)
{
    World w(2, 4);
    int served = 0;
    auto server = [&]() -> sim::Task<void> {
        for (;;) {
            Message req = co_await w.panda.recv(0, 2);
            if (req.as<int>() < 0)
                co_return;
            ++served;
            w.panda.reply(0, req, 8, req.as<int>() + 1);
        }
    };
    int sum = 0;
    int done = 0;
    auto client = [&](Rank self) -> sim::Task<void> {
        for (int i = 0; i < 10; ++i) {
            Message rep = co_await w.panda.rpc(self, 0, 2, 8, i);
            sum += rep.as<int>();
        }
        if (++done == 7)
            w.panda.send(1, 0, 2, 8, -1); // poison
    };
    w.sim.spawn(server());
    for (Rank r = 1; r < 8; ++r)
        w.sim.spawn(client(r));
    w.sim.run();
    EXPECT_EQ(served, 70);
    EXPECT_EQ(sum, 7 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10));
    EXPECT_EQ(w.sim.finishedProcesses(), 8u);
}

TEST(Panda, MulticastReachesAllButSender)
{
    World w(4, 8);
    std::set<Rank> got;
    auto receiver = [&](Rank self) -> sim::Task<void> {
        Message m = co_await w.panda.recv(self, 3);
        EXPECT_EQ(m.src, 5);
        EXPECT_EQ(m.as<int>(), 77);
        got.insert(self);
    };
    for (Rank r = 0; r < 32; ++r) {
        if (r != 5)
            w.sim.spawn(receiver(r));
    }
    w.panda.broadcast(5, 3, 1000, 77);
    w.sim.run();
    EXPECT_EQ(got.size(), 31u);
}

TEST(Panda, MulticastCrossesEachWanLinkOnce)
{
    World w(4, 8);
    w.panda.broadcast(0, 1, 1000, 0);
    w.sim.run();
    // 3 remote clusters -> exactly 3 WAN messages despite 24 remote
    // receivers.
    EXPECT_EQ(w.fabric.stats().inter.messages, 3u);
}

TEST(Panda, MulticastLocalOnly)
{
    World w(4, 4);
    int count = 0;
    auto receiver = [&](Rank self) -> sim::Task<void> {
        co_await w.panda.recv(self, 2);
        ++count;
    };
    for (Rank r = 4; r < 8; ++r)
        w.sim.spawn(receiver(r));
    // Rank 5 multicasts to its own cluster (4..7); itself excluded.
    w.panda.multicast(5, {4, 5, 6, 7}, 2, 100, 0);
    w.sim.run();
    EXPECT_EQ(count, 3);
    EXPECT_EQ(w.fabric.stats().inter.messages, 0u);
    EXPECT_EQ(w.sim.finishedProcesses(), 3u); // rank 5 never spawned
}

} // namespace
} // namespace tli::panda
