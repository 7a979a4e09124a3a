/**
 * @file
 * The discrete-event simulation driver: virtual clock, event scheduling,
 * and ownership of spawned coroutine processes.
 */

#ifndef TWOLAYER_SIM_SIMULATION_H_
#define TWOLAYER_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/types.h"

namespace tli::sim {

class TraceSink;

/** Identifies a spawned process; ids count up from 0 in spawn order. */
using ProcessId = std::size_t;

/**
 * A single-threaded deterministic discrete-event simulation.
 *
 * Simulated processes are coroutines spawned with spawn(); they suspend
 * on awaitables (sleep(), Channel::recv()) whose resumptions always go
 * through the event queue, so no process ever runs inside another
 * process's stack and same-time wakeups happen in schedule order.
 */
class Simulation
{
  public:
    Simulation() = default;
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current virtual time in seconds. */
    Time now() const { return now_; }

    /**
     * Schedule a callback @p delay seconds from now. @p action may be
     * any void() callable; it is forwarded into the event queue's
     * inline storage without intermediate type erasure.
     */
    template <typename F>
    void
    schedule(Time delay, F &&action)
    {
        TLI_ASSERT(delay >= 0, "negative delay ", delay);
        events_.push(now_ + delay, std::forward<F>(action));
    }

    /** Schedule a callback at absolute time @p when (>= now). */
    template <typename F>
    void
    scheduleAt(Time when, F &&action)
    {
        TLI_ASSERT(when >= now_, "scheduleAt in the past: ", when,
                   " < ", now_);
        events_.push(when, std::forward<F>(action));
    }

    /**
     * Start a simulated process. The simulation takes ownership of the
     * coroutine frame; the process begins running at the current time
     * (after already-pending same-time events).
     * @return the process's id, for done().
     */
    ProcessId spawn(Task<void> process);

    /**
     * Run until the event queue drains or @p maxEvents have fired.
     * @return the number of events processed.
     */
    std::uint64_t
    run(std::uint64_t maxEvents = std::numeric_limits<std::uint64_t>::max());

    /** Run until virtual time reaches @p deadline (or the queue drains). */
    std::uint64_t runUntil(Time deadline);

    /** Awaitable that resumes the caller @p dt seconds later. */
    auto
    sleep(Time dt)
    {
        struct Awaiter
        {
            Simulation *sim;
            Time dt;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim->schedule(dt, [h] { h.resume(); });
            }

            void await_resume() const noexcept {}
        };
        TLI_ASSERT(dt >= 0, "negative sleep ", dt);
        return Awaiter{this, dt};
    }

    /** Number of events processed so far. */
    std::uint64_t eventsProcessed() const { return eventsProcessed_; }

    /** Whether process @p id has run to completion. */
    bool done(ProcessId id) const;

    /** Number of spawned processes that have run to completion. */
    std::size_t finishedProcesses() const;

    /** Number of spawned processes. */
    std::size_t spawnedProcesses() const { return processes_.size(); }

    /**
     * The observability hook (see sim/trace.h). Null by default:
     * instrumentation points guard every emission with one pointer
     * test, so an untraced simulation pays nothing and runs
     * bit-identically to a traced one. The sink is not owned.
     */
    TraceSink *trace() const { return trace_; }
    void setTrace(TraceSink *sink) { trace_ = sink; }

  private:
    TraceSink *trace_ = nullptr;
    Time now_ = 0;
    EventQueue events_;
    std::uint64_t eventsProcessed_ = 0;
    std::vector<std::coroutine_handle<detail::TaskPromise<void>>> processes_;
};

} // namespace tli::sim

#endif // TWOLAYER_SIM_SIMULATION_H_
