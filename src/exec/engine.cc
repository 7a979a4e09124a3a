#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "exec/rss.h"
#include "sim/trace.h"

namespace tli::exec {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Serialized stderr progress line: completed/total, hits, ETA. */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::size_t total)
        : enabled_(enabled), total_(total),
          start_(std::chrono::steady_clock::now())
    {
    }

    void
    completed(std::size_t done, std::uint64_t hits,
              const std::string &label)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        double elapsed = secondsSince(start_);
        // ETA from the mean pace so far; cache hits are nearly free
        // but folding them in only makes the estimate conservative
        // early and exact late.
        double eta = done > 0
                         ? elapsed / static_cast<double>(done) *
                               static_cast<double>(total_ - done)
                         : 0.0;
        std::fprintf(stderr,
                     "# sweep %zu/%zu (%llu cached) eta %.1fs  %s\n",
                     done, total_,
                     static_cast<unsigned long long>(hits), eta,
                     label.c_str());
    }

  private:
    bool enabled_;
    std::size_t total_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
};

/**
 * Keep the memory a job frees for the next job. Every job builds and
 * frees its whole world, up to hundreds of MB: a 4x8 allgather of
 * 256 KiB per rank holds 256 MiB of results. By default glibc returns
 * the heap top to the kernel whenever more than a dynamic threshold
 * (twice the largest mmapped block freed so far) is free, so the next
 * job page-faults that memory back in. How often that happens depends
 * on where small live blocks land between the large ones, which varies
 * from run to run: identical 4x8 collective grids spent 2.5M or 4.1M
 * page faults and 12 or 16 s. Fixed thresholds make the cost steady:
 * blocks up to 32 MiB come from the heap, and the heap top goes back
 * to the kernel only beyond 1 GiB. The setting is process-wide and
 * stays after the Engine.
 */
void
keepFreedMemoryBetweenJobs()
{
#if defined(__GLIBC__)
    static std::once_flag once;
    std::call_once(once, [] {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    });
#endif
}

} // namespace

Engine::Engine(EngineConfig config) : config_(config)
{
    keepFreedMemoryBetweenJobs();
}

int
Engine::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<core::RunResult>
Engine::run(const std::vector<core::ExperimentJob> &jobs)
{
    auto t0 = std::chrono::steady_clock::now();
    lastBatch_ = BatchStats{};
    lastBatch_.jobs = jobs.size();

    std::vector<core::RunResult> results(jobs.size());
    if (jobs.empty())
        return results;

    int workers = resolveJobs(config_.jobs);
    workers = std::min<int>(workers, static_cast<int>(jobs.size()));

    // Thread-confinement guard: a sink shared by two jobs would see
    // events from two Simulations interleaved. Run such batches on
    // one worker, where the interleaving is the canonical job order.
    if (workers > 1) {
        std::set<sim::TraceSink *> sinks;
        for (const core::ExperimentJob &job : jobs) {
            if (job.scenario.trace && !sinks.insert(job.scenario.trace).second) {
                workers = 1;
                break;
            }
        }
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> stored{0};
    ProgressMeter progress(config_.progress, jobs.size());

    auto worker = [&] {
        for (;;) {
            std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const core::ExperimentJob &job = jobs[i];
            bool fromCache = false;
            std::string fingerprint;
            if (config_.cache) {
                fingerprint =
                    jobFingerprint(job.variant, job.scenario);
                if (std::optional<core::RunResult> cached =
                        config_.cache->load(fingerprint)) {
                    results[i] = std::move(*cached);
                    fromCache = true;
                }
            }
            if (!fromCache) {
                results[i] = job.variant.run(job.scenario);
                simulated.fetch_add(1, std::memory_order_relaxed);
                if (config_.cache) {
                    config_.cache->store(fingerprint, job,
                                         results[i]);
                    stored.fetch_add(1, std::memory_order_relaxed);
                }
            } else {
                hits.fetch_add(1, std::memory_order_relaxed);
            }
            std::size_t nowDone =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            progress.completed(nowDone,
                              hits.load(std::memory_order_relaxed),
                              job.displayLabel());
        }
    };

    if (workers <= 1) {
        // Degenerate case: no threads, the caller's stack runs every
        // job — traced single runs behave exactly as before the
        // engine existed.
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    lastBatch_.simulated = simulated.load();
    lastBatch_.cacheHits = hits.load();
    lastBatch_.stored = stored.load();
    lastBatch_.elapsedSeconds = secondsSince(t0);
    lastBatch_.peakRssBytes = peakRssBytes();
    return results;
}

} // namespace tli::exec
