/**
 * @file
 * Shared runtime scaffolding for the six benchmark applications: the
 * assembled machine (simulation + fabric + messaging + collectives), a
 * calibrated CPU cost model, the run protocol (one worker per rank,
 * startup excluded from the measurement as in the paper, every worker
 * checked for completion) and the memo of sequential references.
 */

#ifndef TWOLAYER_APPS_COMMON_H_
#define TWOLAYER_APPS_COMMON_H_

#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "core/scenario.h"
#include "magpie/communicator.h"
#include "net/fabric.h"
#include "panda/panda.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace tli::apps {

/**
 * CPU cost model: applications perform their real computation in
 * native code and charge the simulation clock per unit of algorithmic
 * work, with per-application constants calibrated so the
 * communication/computation ratios reproduce the paper's
 * single-cluster behaviour (Table 1).
 */
class Cpu
{
  public:
    /** @param seconds_per_unit simulated cost of one work unit. */
    explicit Cpu(double seconds_per_unit)
        : secondsPerUnit_(seconds_per_unit)
    {
    }

    /** Awaitable charging @p units of work to the caller's clock. */
    auto
    compute(sim::Simulation &sim, double units) const
    {
        return sim.sleep(units * secondsPerUnit_);
    }

    double secondsPerUnit() const { return secondsPerUnit_; }

  private:
    double secondsPerUnit_;
};

/**
 * The assembled machine an application run executes on. One instance
 * per run; runWorkers() spawns one worker process per rank.
 */
class Machine
{
  public:
    /**
     * @param scenario machine shape, network parameters, and the
     *        collective policy for comm(). The default (all-flat)
     *        policy matches the paper's applications, whose wide-area
     *        optimizations live in the applications themselves; set
     *        Scenario::collectives (--collectives / --tuning-table)
     *        to route collectives through the cluster-aware or tuned
     *        library instead. A tuned policy is bound here to the
     *        scenario's (bandwidth, latency) gap point.
     */
    explicit Machine(const core::Scenario &scenario)
        : scenario_(scenario),
          topo_(scenario.clusters, scenario.procsPerCluster),
          fabric_(sim_, topo_, scenario.fabricParams()),
          panda_(sim_, fabric_),
          comm_(panda_,
                scenario.collectives.isTuned()
                    ? scenario.collectives.boundTo(
                          scenario.wanBandwidthMBs,
                          scenario.wanLatencyMs)
                    : scenario.collectives),
          computeSeconds_(topo_.totalRanks(), 0.0)
    {
        if (scenario.trace) {
            sim_.setTrace(scenario.trace);
            scenario.trace->onRunBegin(scenario.describe());
        }
    }

    const core::Scenario &scenario() const { return scenario_; }
    sim::Simulation &sim() { return sim_; }
    const net::Topology &topo() const { return topo_; }
    net::Fabric &fabric() { return fabric_; }
    panda::Panda &panda() { return panda_; }
    magpie::Communicator &comm() { return comm_; }

    int size() const { return topo_.totalRanks(); }

    /**
     * Run the application: spawn @p worker(rank) for ranks 0..size()-1
     * in rank order (after whatever server processes the caller has
     * already started), run the simulation until no event is left,
     * then check that every worker finished. Servers never finish and
     * are not checked; helper processes a worker spawns mid-run are
     * not checked either. A worker left blocked aborts the run with
     * one line naming the stuck ranks.
     */
    template <typename Worker>
    void
    runWorkers(Worker &&worker)
    {
        std::vector<sim::ProcessId> ids;
        ids.reserve(static_cast<std::size_t>(size()));
        for (Rank r = 0; r < size(); ++r)
            ids.push_back(sim_.spawn(worker(r)));
        sim_.run();
        checkFinished(ids);
    }

    /**
     * Mark the end of the startup phase: the caller must arrange that
     * all ranks are synchronized (e.g. via a barrier) before one rank
     * calls this. Resets traffic statistics and the measurement clock.
     */
    void
    startMeasurement()
    {
        fabric_.resetStats();
        measureStart_ = sim_.now();
    }

    /**
     * Record the run time (elapsed since startMeasurement()) and mark
     * the measurement end in the trace. One rank calls this where the
     * run time is read off the clock (after the closing barrier):
     * traffic past this point is verification and teardown, outside
     * the reported run time.
     */
    void
    endMeasurement()
    {
        if (auto *t = sim_.trace())
            t->onMeasurementEnd(sim_.now());
        runTime_ = sim_.now() - measureStart_;
    }

    /**
     * Assemble a RunResult from the measured phase, with the run time
     * endMeasurement() recorded.
     */
    core::RunResult
    finishMeasurement(double checksum, bool verified) const
    {
        TLI_ASSERT(runTime_.has_value(),
                   "finishMeasurement() without endMeasurement()");
        core::RunResult r;
        r.runTime = *runTime_;
        r.traffic = fabric_.stats();
        r.checksum = checksum;
        r.verified = verified;
        r.computePerRank = computeSeconds_;
        r.collectiveDispatch = comm_.dispatchLog();
        return r;
    }

    /**
     * Charge @p units of work on @p self's clock through @p cpu and
     * account it toward the per-rank compute profile (the basis of
     * the load-balance analysis).
     */
    auto
    compute(Rank self, const Cpu &cpu, double units)
    {
        double seconds = units * cpu.secondsPerUnit();
        computeSeconds_[self] += seconds;
        if (auto *t = sim_.trace()) {
            Time now = sim_.now();
            t->onPhase({self, "compute", now, now + seconds});
        }
        return cpu.compute(sim_, units);
    }

    /**
     * Scoped phase marker: the returned guard emits one "@p name"
     * span on @p self's timeline from construction to destruction.
     * Free when no trace sink is attached.
     */
    sim::PhaseScope
    phase(Rank self, const char *name)
    {
        return sim::PhaseScope(sim_, self, name);
    }

  private:
    /** Abort unless every process in @p workers (indexed by rank)
     *  ran to completion. */
    void checkFinished(const std::vector<sim::ProcessId> &workers) const;

    core::Scenario scenario_;
    sim::Simulation sim_;
    net::Topology topo_;
    net::Fabric fabric_;
    panda::Panda panda_;
    magpie::Communicator comm_;
    double measureStart_ = 0;
    std::optional<double> runTime_;
    std::vector<double> computeSeconds_;
};


/**
 * A memo of sequential reference results, one instance per
 * application. Parallel sweep workers (src/exec) run applications
 * concurrently, so get() holds a mutex and computes a missing value
 * under it: each key is computed once. Returned references stay
 * valid for the memo's lifetime, since the map only grows and
 * std::map nodes never move.
 */
template <typename Key, typename Value>
class Memo
{
  public:
    /** The value for @p key, computing it with @p compute() once. */
    template <typename Compute>
    const Value &
    get(const Key &key, Compute &&compute)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = values_.find(key);
        if (it == values_.end())
            it = values_.emplace(key, compute()).first;
        return it->second;
    }

  private:
    std::mutex mutex_;
    std::map<Key, Value> values_;
};

/** Verification tolerance for floating-point checksums. */
inline bool
closeEnough(double got, double want, double rel_tol = 1e-9)
{
    double denom = std::fabs(want) > 1.0 ? std::fabs(want) : 1.0;
    return std::fabs(got - want) <= rel_tol * denom;
}

} // namespace tli::apps

#endif // TWOLAYER_APPS_COMMON_H_
