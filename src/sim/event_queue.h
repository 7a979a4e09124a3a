/**
 * @file
 * Deterministic discrete-event queue: a 4-ary min-heap over a plain
 * vector, ordered by (time, insertion sequence) so same-time events
 * fire in FIFO order.
 *
 * Layout: the heap itself holds trivially-copyable 16-byte entries, so
 * every sift step is a plain register copy the compiler inlines; the
 * type-erased callables live in a side arena addressed by slot and
 * never move while queued. Recycled slots are threaded into an
 * intrusive free list (one index per slot) instead of a separate
 * free-slot stack, so push/pop touch one array, not two. Owning the
 * heap directly — instead of wrapping std::priority_queue — lets pop()
 * move the payload out legitimately; the old implementation
 * const_cast-moved from top(), which is undefined behavior.
 *
 * Ordering key: each entry packs (time bits, sequence, slot) into one
 * unsigned 128-bit word — the IEEE-754 bits of a nonnegative double
 * order identically to its value, so a single branchless integer
 * comparison replaces the two-step (when, seq) compare. Simulated time
 * is nonnegative by construction (Simulation asserts it); -0.0 is
 * normalized to +0.0 on entry so the one representable equal-but-
 * different-bits pair cannot misorder.
 */

#ifndef TWOLAYER_SIM_EVENT_QUEUE_H_
#define TWOLAYER_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace tli::sim {

/** A scheduled callback with its firing time and a FIFO tie-breaker. */
struct Event
{
    Time when;
    std::uint64_t seq;
    EventFn action;
};

/**
 * Min-heap of events keyed on (when, seq). The sequence number makes
 * simulation runs bit-reproducible: two events scheduled for the same
 * instant always fire in the order they were scheduled.
 */
class EventQueue
{
  public:
    /**
     * Schedule @p action to fire at absolute time @p when. Accepts any
     * void() callable (or an EventFn) and constructs it directly in
     * the arena slot, so the common path performs no type-erased
     * relocation and no allocation.
     */
    template <typename F>
    void
    push(Time when, F &&action)
    {
        std::uint32_t slot;
        if (freeHead_ != noSlot) {
            slot = freeHead_;
            freeHead_ = nextFree_[slot];
            actions_[slot].emplace(std::forward<F>(action));
        } else {
            slot = static_cast<std::uint32_t>(actions_.size());
            actions_.emplace_back(std::forward<F>(action));
            nextFree_.push_back(noSlot);
        }
        TLI_ASSERT(slot < (1u << slotBits) && nextSeq_ < maxSeq,
                   "event queue capacity exceeded");
        heap_.push_back(
            Entry::make(when, (nextSeq_++ << slotBits) | slot));
        siftUp(heap_.size() - 1);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Time of the earliest pending event. Undefined when empty. */
    Time nextTime() const { return heap_.front().when(); }

    /** Remove and return the earliest pending event. */
    Event
    pop()
    {
        const Entry top = heap_.front();
        const std::uint32_t slot = top.slot();
        Event out{top.when(), top.seq(), std::move(actions_[slot])};
        nextFree_[slot] = freeHead_;
        freeHead_ = slot;
        const Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(last);
        return out;
    }

    /** Total number of events ever scheduled (statistics). */
    std::uint64_t scheduledCount() const { return nextSeq_; }

    /** Drop all pending events (teardown). */
    void
    clear()
    {
        heap_.clear();
        actions_.clear();
        nextFree_.clear();
        freeHead_ = noSlot;
    }

    /** Pre-size the queue's storage (optional tuning). */
    void
    reserve(std::size_t n)
    {
        heap_.reserve(n);
        actions_.reserve(n);
        nextFree_.reserve(n);
    }

  private:
    /** Low bits of the key's low word holding the arena slot index. */
    static constexpr unsigned slotBits = 24;
    /** Sequence numbers use the remaining 40 bits (~10^12 events). */
    static constexpr std::uint64_t maxSeq = 1ull << (64 - slotBits);
    /** Free-list terminator. */
    static constexpr std::uint32_t noSlot = 0xffffffffu;

    /**
     * One heap node: the time's bits in the high 64, (seq << slotBits
     * | slot) in the low 64. Sequence numbers are unique, so ordering
     * the packed word orders by (time, seq) and the slot rides along
     * for free; the whole comparison is one branchless 128-bit
     * integer compare. Trivially copyable and 16 bytes, so sift steps
     * stay plain register copies and the heap stays dense in cache.
     */
    struct Entry
    {
        unsigned __int128 key;

        static Entry
        make(Time when, std::uint64_t seqSlot)
        {
            // +0.0 collapses -0.0 onto +0.0 and is the identity for
            // every other value, keeping bit order == value order.
            return Entry{(static_cast<unsigned __int128>(
                              std::bit_cast<std::uint64_t>(when + 0.0))
                          << 64) |
                         seqSlot};
        }

        Time
        when() const
        {
            return std::bit_cast<Time>(
                static_cast<std::uint64_t>(key >> 64));
        }
        std::uint64_t
        seq() const
        {
            return static_cast<std::uint64_t>(key) >> slotBits;
        }
        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(key) &
                   ((1u << slotBits) - 1);
        }
    };

    /** Children of node i are [arity*i + 1, arity*i + arity]. */
    static constexpr std::size_t arity = 4;

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        return a.key < b.key;
    }

    /**
     * Restore the heap property after appending at @p hole. Hole-based:
     * parents shift down into the hole and the appended entry is
     * written once at its final position.
     */
    void
    siftUp(std::size_t hole)
    {
        const Entry moving = heap_[hole];
        while (hole > 0) {
            std::size_t parent = (hole - 1) / arity;
            if (!earlier(moving, heap_[parent]))
                break;
            heap_[hole] = heap_[parent];
            hole = parent;
        }
        heap_[hole] = moving;
    }

    /**
     * Place @p moving, displaced from the tail, starting at the root.
     * Bottom-up (Wegener) variant: walk the hole to a leaf along the
     * min-child path without testing @p moving at each level — a
     * tail element almost always belongs near the bottom, so the
     * per-level early-exit test is a predictably wasted comparison —
     * then bubble @p moving back up the same path.
     */
    void
    siftDown(const Entry moving)
    {
        const std::size_t n = heap_.size();
        std::size_t hole = 0;
        for (;;) {
            std::size_t first = arity * hole + 1;
            if (first >= n)
                break;
#if defined(__GNUC__) || defined(__clang__)
            // Start pulling the next level in while this one is
            // compared; the deep levels of a large heap miss cache.
            if (std::size_t next = arity * first + 1; next < n) {
                __builtin_prefetch(&heap_[next]);
                __builtin_prefetch(&heap_[next + arity * 2]);
            }
#endif
            std::size_t best = first;
            std::size_t end = first + arity < n ? first + arity : n;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            heap_[hole] = heap_[best];
            hole = best;
        }
        heap_[hole] = moving;
        siftUp(hole);
    }

    std::vector<Entry> heap_;
    /** Queued callables, indexed by entry slot; stable while queued. */
    std::vector<EventFn> actions_;
    /** Intrusive free list: next free slot after each recycled slot. */
    std::vector<std::uint32_t> nextFree_;
    std::uint32_t freeHead_ = noSlot;
    std::uint64_t nextSeq_ = 0;
};

} // namespace tli::sim

#endif // TWOLAYER_SIM_EVENT_QUEUE_H_
