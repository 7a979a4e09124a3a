#include "unit_loops.h"

#include <vector>

#include "net/config.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "panda/panda.h"
#include "probes.h"
#include "sim/simulation.h"

namespace perfbench {

namespace {

using namespace tli;

/** Time @p body @p reps times; @p body returns its event count. */
template <typename Body>
UnitCost
measure(std::uint64_t ops, int reps, Body body)
{
    UnitCost c;
    c.ops = ops;
    c.reps = reps;
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const double t0 = wallNow();
        c.events = body();
        ns.push_back(1e9 * (wallNow() - t0) / static_cast<double>(ops));
    }
    c.nsPerOp = median(ns);
    return c;
}

net::FabricParams
paperParams()
{
    return net::Profile::das(6.0, 0.5).params();
}

} // namespace

UnitCost
simEventCost(int n, int reps)
{
    return measure(n, reps, [n] {
        sim::Simulation sim;
        std::uint64_t fired = 0;
        for (int i = 0; i < n; ++i)
            sim.schedule(1e-6 * ((i * 7919) % 1000),
                         [&fired] { ++fired; });
        sim.run();
        return sim.eventsProcessed();
    });
}

UnitCost
fabricSendCost(int n, int reps)
{
    return measure(n, reps, [n] {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, paperParams());
        std::uint64_t delivered = 0;
        for (int i = 0; i < n; ++i)
            fabric.send((i * 5) % 32, (i * 11 + 3) % 32, 64,
                        [&delivered] { ++delivered; });
        sim.run();
        return sim.eventsProcessed();
    });
}

UnitCost
pandaUnicastCost(int n, int reps)
{
    return measure(n, reps, [n] {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, paperParams());
        panda::Panda panda(sim, fabric);
        auto receiver = [&]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i)
                (void)co_await panda.recv(31, 1);
        };
        sim.spawn(receiver());
        for (int i = 0; i < n; ++i)
            panda.send(0, 31, 1, 64, i);
        sim.run();
        return sim.eventsProcessed();
    });
}

} // namespace perfbench
