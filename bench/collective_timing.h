/**
 * @file
 * Shared machinery for timing one MPI-style collective operation on a
 * fresh fabric: used by bench/magpie_collectives for the §6 flat-vs-
 * MagPIe tables and by bench/wan_topology for the same comparison per
 * wide-area shape.
 */

#ifndef TWOLAYER_BENCH_COLLECTIVE_TIMING_H_
#define TWOLAYER_BENCH_COLLECTIVE_TIMING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "magpie/communicator.h"
#include "net/config.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "panda/panda.h"
#include "sim/logging.h"
#include "sim/simulation.h"

namespace tli::bench {

/** The fourteen collective operations of MagPIe's evaluation. */
inline const std::vector<std::string> &
allCollectives()
{
    static const std::vector<std::string> ops = [] {
        std::vector<std::string> v;
        for (int i = 0; i < magpie::kOpCount; ++i)
            v.emplace_back(
                magpie::opName(static_cast<magpie::Op>(i)));
        return v;
    }();
    return ops;
}

/** Make one call of the named collective on one rank. */
inline sim::Task<void>
invokeCollective(magpie::Communicator &comm, const std::string &op,
                 Rank self, int p, int elems)
{
    using magpie::ReduceOp;
    using magpie::Table;
    using magpie::Vec;
    Vec data(static_cast<std::size_t>(elems), 1.0 * self);
    if (op == "barrier") {
        co_await comm.barrier(self);
    } else if (op == "bcast") {
        (void)co_await comm.bcast(self, 0, std::move(data));
    } else if (op == "reduce") {
        (void)co_await comm.reduce(self, 0, std::move(data),
                                   ReduceOp::sum());
    } else if (op == "allreduce") {
        (void)co_await comm.allreduce(self, std::move(data),
                                      ReduceOp::sum());
    } else if (op == "gather") {
        (void)co_await comm.gather(self, 0, std::move(data));
    } else if (op == "gatherv") {
        Vec ragged(static_cast<std::size_t>(elems + self), 1.0);
        (void)co_await comm.gatherv(self, 0, std::move(ragged));
    } else if (op == "scatter" || op == "scatterv") {
        Table chunks;
        if (self == 0)
            chunks.assign(p, Vec(elems, 2.0));
        if (op == "scatter")
            (void)co_await comm.scatter(self, 0, std::move(chunks));
        else
            (void)co_await comm.scatterv(self, 0, std::move(chunks));
    } else if (op == "allgather") {
        (void)co_await comm.allgather(self, std::move(data));
    } else if (op == "allgatherv") {
        Vec ragged(static_cast<std::size_t>(elems + self), 1.0);
        (void)co_await comm.allgatherv(self, std::move(ragged));
    } else if (op == "alltoall" || op == "alltoallv") {
        Table rows(p, Vec(elems / 4 + 1, 1.0 * self));
        if (op == "alltoall")
            (void)co_await comm.alltoall(self, std::move(rows));
        else
            (void)co_await comm.alltoallv(self, std::move(rows));
    } else if (op == "scan") {
        (void)co_await comm.scan(self, std::move(data),
                                 ReduceOp::sum());
    } else if (op == "reduce_scatter") {
        Table rows(p, Vec(elems / 4 + 1, 1.0 * self));
        (void)co_await comm.reduceScatter(self, std::move(rows),
                                          ReduceOp::sum());
    } else {
        TLI_FATAL("unknown op ", op);
    }
}

/**
 * The dispatch key a tuned Communicator computes for
 * invokeCollective's payload at @p elems doubles per rank: the wire
 * size of one rank's own contribution, or 0 for the operations that
 * key on one aggregate cell (magpie::keyedBySize). The tuner stores
 * table cells under exactly these keys.
 */
inline std::uint64_t
dispatchKeyBytes(magpie::Op op, int p, int elems)
{
    using magpie::Op;
    if (!magpie::keyedBySize(op))
        return 0;
    if (op == Op::alltoall || op == Op::reduce_scatter)
        return magpie::wireSize(magpie::Table(
            static_cast<std::size_t>(p),
            magpie::Vec(static_cast<std::size_t>(elems / 4 + 1), 0.0)));
    return magpie::wireSize(
        magpie::Vec(static_cast<std::size_t>(elems), 0.0));
}

/**
 * Completion time (all ranks finished) of one collective call on a
 * machine built from @p params — the wide-area shape, latency and
 * bandwidth all come from the profile that produced it. A tuned
 * @p policy must already be bound to its gap point by the caller.
 */
inline double
timeCollective(const std::string &op,
               const magpie::CollectivePolicy &policy,
               const net::FabricParams &params, int clusters,
               int procs, int elems)
{
    sim::Simulation sim;
    net::Topology topo(clusters, procs);
    net::Fabric fabric(sim, topo, params);
    panda::Panda panda(sim, fabric);
    magpie::Communicator comm(panda, policy);
    const int p = topo.totalRanks();
    for (Rank r = 0; r < p; ++r)
        sim.spawn(invokeCollective(comm, op, r, p, elems));
    sim.run();
    return sim.now();
}

} // namespace tli::bench

#endif // TWOLAYER_BENCH_COLLECTIVE_TIMING_H_
