/**
 * @file
 * Unit-cost loops for the sim, net and panda layers: each drives one
 * layer's public functions in a tight loop on the paper's 4x8 machine
 * and reports host nanoseconds per operation. Combined with the
 * traced run's counts they give the Σ count x unit cost model whose
 * residual the benchmark publishes.
 */

#ifndef TLI_PERFBENCH_UNIT_LOOPS_H_
#define TLI_PERFBENCH_UNIT_LOOPS_H_

#include <cstdint>

namespace perfbench {

struct UnitCost
{
    /** Median host nanoseconds per operation over the repetitions. */
    double nsPerOp = 0;
    /** Operations per repetition. */
    std::uint64_t ops = 0;
    /** Simulation events processed per repetition. */
    std::uint64_t events = 0;
    int reps = 0;
};

/** Simulation::schedule of @p n events, then Simulation::run. */
UnitCost simEventCost(int n, int reps);

/** Fabric::send of @p n 64-byte messages between mixed rank pairs
 *  (intra- and inter-cluster) on a bare fabric, then run. */
UnitCost fabricSendCost(int n, int reps);

/** Panda unicast: @p n 64-byte sends rank 0 -> 31 (inter-cluster),
 *  each received by a waiting coroutine. */
UnitCost pandaUnicastCost(int n, int reps);

} // namespace perfbench

#endif // TLI_PERFBENCH_UNIT_LOOPS_H_
