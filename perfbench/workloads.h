/**
 * @file
 * The benchmark's three workloads. Each is a closed loop over a fixed
 * batch built from a seed: set up, then run the batch through the
 * layers' public entry points (core::GapStudy over exec::Engine, the
 * collective timing harness, analysis::predictStudy), recording every
 * simulated output for the correctness digest and, in the traced run,
 * spans and counts at the benchmark's own call boundaries.
 */

#ifndef TLI_PERFBENCH_WORKLOADS_H_
#define TLI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.h"
#include "probes.h"

namespace perfbench {

/** Instrumentation handed to a traced batch (null when untraced). */
struct Probe
{
    SpanRecorder spans;
    CountingSink sink;
};

/** What one batch did, measured from outside the layers. */
struct BatchResult
{
    /** Operations attempted: DES runs plus prediction calls. */
    std::uint64_t attempted = 0;
    /** Runs that did not verify against their sequential reference. */
    std::uint64_t failed = 0;
    /** Discrete-event simulation runs completed. */
    std::uint64_t desRuns = 0;
    /** Result cells produced (surface, timing or predicted cells). */
    std::uint64_t cells = 0;
    /** Digest of every simulated and predicted output of the batch. */
    std::uint64_t digest = 0;
    /** Host seconds per job (the job_s samples). */
    std::vector<double> jobSeconds;
    /** The same samples keyed by application (apps.<app>.job_s). */
    std::map<std::string, std::vector<double>> appJobSeconds;

    /** Summed RunResult::traffic over every DES run. */
    std::uint64_t intraMsgs = 0, interMsgs = 0;
    std::uint64_t intraBytes = 0, interBytes = 0;
    /** Σ computePerRank, simulated seconds. */
    double computeSimS = 0;
    /** Simulation::eventsProcessed where the benchmark built the
     *  Simulation (collective_sweep only), else 0. */
    std::uint64_t simEvents = 0;
    /** Communicator calls the benchmark made (one per rank per
     *  collective job; collective_sweep only). */
    std::uint64_t magpieCalls = 0;

    /** Engine counters (exec::Engine::lastBatch), summed over the
     *  batch's Engine::run calls; zero when no engine ran. */
    int workers = 0;
    double engineWallS = 0;
    std::uint64_t engineStored = 0;

    /** The traced runs and predictStudy calls (predict_dense only). */
    double traceRunS = 0;
    double predictS = 0;
    std::uint64_t traceMessages = 0;

    /** Every DES job and its result, for the ResultCache replay. */
    std::vector<std::pair<tli::core::ExperimentJob, tli::core::RunResult>>
        results;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build everything one batch needs from @p seed: the job list,
     * validated scenarios and a fresh result cache in @p cacheDir.
     * @p workers is the engine's worker count; @p probe, when
     * non-null, receives the batch's spans and trace stream.
     */
    virtual void setup(std::uint64_t seed, const std::string &cacheDir,
                       int workers, Probe *probe) = 0;

    /** Run the batch the last setup() prepared. */
    virtual BatchResult run() = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** @p tiny shrinks every batch to a few jobs (the self-check). */
std::unique_ptr<Workload> makeWorkload(const std::string &name, bool tiny);

/** Host microseconds per call of each of the fourteen collectives
 *  (MagPIe policy, 1 KiB per rank, 4x8 machine), median of @p reps. */
std::map<std::string, double> collectiveCallCosts(int reps);

} // namespace perfbench

#endif // TLI_PERFBENCH_WORKLOADS_H_
