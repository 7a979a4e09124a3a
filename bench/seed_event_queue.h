/**
 * @file
 * The seed's event queue, verbatim: std::priority_queue over
 * std::function events, const_cast move from top(). Frozen as the
 * fixed baseline the event-queue speedup is measured against, by
 * bench/micro_engine (BM_EventQueuePushPop vs
 * BM_SeedEventQueuePushPop) and by tools/tli_bench_report (the same
 * pair with a realistic 20-byte capture, recorded in BENCH_<label>.json).
 */

#ifndef TWOLAYER_BENCH_SEED_EVENT_QUEUE_H_
#define TWOLAYER_BENCH_SEED_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace tli::bench {

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

} // namespace tli::bench

#endif // TWOLAYER_BENCH_SEED_EVENT_QUEUE_H_
