/**
 * @file
 * The parallel experiment-execution engine: fans a batch of
 * independent experiment jobs out over a worker pool, skips jobs whose
 * fingerprint hits the result cache, and commits results in canonical
 * job order — bit-identical to a serial run at any worker count.
 */

#ifndef TWOLAYER_EXEC_ENGINE_H_
#define TWOLAYER_EXEC_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/executor.h"
#include "exec/result_cache.h"

namespace tli::exec {

struct EngineConfig
{
    /** Worker threads; 0 = hardware concurrency. 1 = run inline on
     *  the calling thread (the serial degenerate case). */
    int jobs = 0;
    /** Result cache to consult and fill; null = always simulate. */
    ResultCache *cache = nullptr;
    /** Emit completed/total + cache hits + ETA lines on stderr. */
    bool progress = false;
};

/** Counters describing what the last run() actually did. */
struct BatchStats
{
    std::uint64_t jobs = 0;
    /** Jobs that ran a Simulation. */
    std::uint64_t simulated = 0;
    /** Jobs answered from the result cache without simulating. */
    std::uint64_t cacheHits = 0;
    /** Results newly persisted to the cache. */
    std::uint64_t stored = 0;
    /** Wall-clock seconds for the whole batch. */
    double elapsedSeconds = 0;
    /**
     * Process-wide peak resident set after the batch, bytes (0 =
     * unavailable). Diagnostics only — never part of a RunResult, so
     * cached and simulated batches stay bit-identical.
     */
    std::int64_t peakRssBytes = 0;
};

/**
 * A work-sharing thread-pool Executor.
 *
 * Each worker claims the next unclaimed job index from a shared
 * atomic cursor (an MPMC queue degenerates to this when every consumer
 * is identical), runs a complete single-threaded Simulation for it,
 * and writes the result into that job's slot — so results commit in
 * canonical job order and parallel output is bit-identical to serial
 * output. Per-job trace sinks stay confined to the worker running the
 * job; if any two jobs in a batch share a trace sink, the batch is
 * demoted to one worker so the shared sink still sees a single,
 * deterministic event stream.
 */
class Engine : public core::Executor
{
  public:
    explicit Engine(EngineConfig config = {});

    std::vector<core::RunResult>
    run(const std::vector<core::ExperimentJob> &jobs) override;

    /** Counters from the most recent run(). */
    const BatchStats &lastBatch() const { return lastBatch_; }

    const EngineConfig &config() const { return config_; }

    /** The worker count a given config resolves to: @p requested,
     *  or hardware concurrency for 0. Panics when negative. */
    static int resolveJobs(int requested);

  private:
    EngineConfig config_;
    BatchStats lastBatch_;
};

} // namespace tli::exec

#endif // TWOLAYER_EXEC_ENGINE_H_
