/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate: event
 * queue throughput, coroutine context switching, channel operations,
 * messaging, and collective operations per wall-clock second. These
 * characterize the simulator itself, not the paper's system.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "magpie/communicator.h"
#include "net/config.h"
#include "panda/panda.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

using namespace tli;

namespace {

/**
 * The seed's event queue, verbatim: std::priority_queue over
 * std::function events, const_cast move from top(). Frozen as the
 * fixed baseline BM_EventQueuePushPop is compared against.
 */
class SeedEventQueue
{
  public:
    struct Event
    {
        Time when;
        std::uint64_t seq;
        std::function<void()> action;
    };

    void
    push(Time when, std::function<void()> action)
    {
        heap_.push(Event{when, nextSeq_++, std::move(action)});
    }

    bool empty() const { return heap_.empty(); }

    Event
    pop()
    {
        Event ev = std::move(const_cast<Event &>(heap_.top()));
        heap_.pop();
        return ev;
    }

  private:
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    std::uint64_t nextSeq_ = 0;
};

void
BM_EventQueuePushPop(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < n; ++i)
            q.push((i * 7919) % 1000, [] {});
        while (!q.empty())
            benchmark::DoNotOptimize(q.pop());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void
BM_SeedEventQueuePushPop(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        SeedEventQueue q;
        for (int i = 0; i < n; ++i)
            q.push((i * 7919) % 1000, [] {});
        while (!q.empty())
            benchmark::DoNotOptimize(q.pop());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SeedEventQueuePushPop)->Arg(1024)->Arg(65536);

void
BM_CoroutineSleepLoop(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        auto proc = [&sim, n]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i)
                co_await sim.sleep(0.001);
        };
        sim.spawn(proc());
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoroutineSleepLoop)->Arg(10000);

void
BM_ChannelPingPong(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        sim::Channel<int> ping(sim);
        sim::Channel<int> pong(sim);
        auto a = [&]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i) {
                ping.send(i);
                (void)co_await pong.recv();
            }
        };
        auto b = [&]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i) {
                (void)co_await ping.recv();
                pong.send(i);
            }
        };
        sim.spawn(a());
        sim.spawn(b());
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_ChannelPingPong)->Arg(10000);

void
BM_PandaUnicast(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, net::Profile::das(6.0, 0.5).params());
        panda::Panda panda(sim, fabric);
        auto receiver = [&]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i)
                (void)co_await panda.recv(31, 1);
        };
        sim.spawn(receiver());
        for (int i = 0; i < n; ++i)
            panda.send(0, 31, 1, 64, i);
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PandaUnicast)->Arg(4096);

void
BM_CollectiveAllreduce(benchmark::State &state)
{
    const magpie::CollectivePolicy policy =
        state.range(0) == 0 ? magpie::CollectivePolicy::flat()
                            : magpie::CollectivePolicy::magpie();
    for (auto _ : state) {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, net::Profile::das(6.0, 0.5).params());
        panda::Panda panda(sim, fabric);
        magpie::Communicator comm(panda, policy);
        auto proc = [&](Rank self) -> sim::Task<void> {
            for (int i = 0; i < 8; ++i) {
                magpie::Vec v{1.0 * self};
                (void)co_await comm.allreduce(self, std::move(v),
                                              magpie::ReduceOp::sum());
            }
        };
        for (Rank r = 0; r < 32; ++r)
            sim.spawn(proc(r));
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_CollectiveAllreduce)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
