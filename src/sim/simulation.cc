#include "sim/simulation.h"

namespace tli::sim {

Simulation::~Simulation()
{
    // Pending events may capture handles into process frames; drop them
    // before destroying the frames themselves.
    events_.clear();
    for (auto h : processes_) {
        if (h)
            h.destroy();
    }
}

ProcessId
Simulation::spawn(Task<void> process)
{
    TLI_ASSERT(process.valid(), "spawning an empty task");
    auto handle = process.release();
    processes_.push_back(handle);
    events_.push(now_, [handle] { handle.resume(); });
    return processes_.size() - 1;
}

std::uint64_t
Simulation::run(std::uint64_t maxEvents)
{
    std::uint64_t fired = 0;
    while (!events_.empty() && fired < maxEvents) {
        Event ev = events_.pop();
        TLI_ASSERT(ev.when >= now_, "time went backwards");
        now_ = ev.when;
        ev.action();
        ++fired;
        ++eventsProcessed_;
    }
    // A root process that died on an exception has nobody to rethrow
    // to; surface it instead of silently losing it.
    for (auto h : processes_) {
        if (h && h.done()) {
            if (auto ex = h.promise().storedException())
                std::rethrow_exception(ex);
        }
    }
    return fired;
}

std::uint64_t
Simulation::runUntil(Time deadline)
{
    std::uint64_t fired = 0;
    while (!events_.empty() && events_.nextTime() <= deadline) {
        Event ev = events_.pop();
        now_ = ev.when;
        ev.action();
        ++fired;
        ++eventsProcessed_;
    }
    if (now_ < deadline)
        now_ = deadline;
    return fired;
}

bool
Simulation::done(ProcessId id) const
{
    TLI_ASSERT(id < processes_.size(), "no process ", id);
    return processes_[id].done();
}

std::size_t
Simulation::finishedProcesses() const
{
    std::size_t n = 0;
    for (auto h : processes_) {
        if (h && h.done())
            ++n;
    }
    return n;
}

} // namespace tli::sim
