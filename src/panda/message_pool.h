/**
 * @file
 * Slab pool for in-flight Panda messages. Every unicast used to heap-
 * allocate a fresh `shared_ptr<Message>` (a control block plus the
 * message) per send; at 10k+ ranks the allocator traffic dominates the
 * injection path. The pool hands out recycled Message slots from
 * slab-allocated arrays behind a move-only RAII handle that is exactly
 * two pointers — small enough to ride inside EventFn's inline buffer
 * next to `this`, so a pooled delivery closure never allocates at all.
 */

#ifndef TWOLAYER_PANDA_MESSAGE_POOL_H_
#define TWOLAYER_PANDA_MESSAGE_POOL_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "panda/message.h"

namespace tli::panda {

class MessagePool;

/**
 * Move-only owner of one pooled Message. Pointer semantics mirror
 * shared_ptr (`*` and `->` are const, like any smart pointer), so
 * delivery closures that captured a shared_ptr port over unchanged.
 * Destruction returns the slot — whether the message was delivered or
 * the closure was dropped with the event queue at teardown.
 */
class PooledMessage
{
  public:
    PooledMessage() noexcept = default;
    PooledMessage(MessagePool *pool, Message *msg) noexcept
        : pool_(pool), msg_(msg)
    {
    }

    PooledMessage(PooledMessage &&other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          msg_(std::exchange(other.msg_, nullptr))
    {
    }

    PooledMessage &
    operator=(PooledMessage &&other) noexcept
    {
        if (this != &other) {
            reset();
            pool_ = std::exchange(other.pool_, nullptr);
            msg_ = std::exchange(other.msg_, nullptr);
        }
        return *this;
    }

    PooledMessage(const PooledMessage &) = delete;
    PooledMessage &operator=(const PooledMessage &) = delete;

    ~PooledMessage() { reset(); }

    Message &operator*() const noexcept { return *msg_; }
    Message *operator->() const noexcept { return msg_; }
    explicit operator bool() const noexcept { return msg_ != nullptr; }

    /** Return the slot to its pool early. */
    inline void reset() noexcept;

  private:
    MessagePool *pool_ = nullptr;
    Message *msg_ = nullptr;
};

/**
 * The slab allocator behind PooledMessage. Slots are recycled LIFO, so
 * a steady-state send/deliver cycle reuses the same hot cache lines;
 * slabs are only ever added, so outstanding messages never move. Not
 * thread-safe by design: each simulation owns its world exclusively
 * (the exec engine's parallelism is across simulations, never within
 * one).
 */
class MessagePool
{
  public:
    MessagePool() = default;
    MessagePool(const MessagePool &) = delete;
    MessagePool &operator=(const MessagePool &) = delete;

    /** Take a fresh (default-state) message from the pool. */
    PooledMessage
    acquire()
    {
        if (free_.empty())
            addSlab();
        Message *m = free_.back();
        free_.pop_back();
        ++inUse_;
        return PooledMessage(this, m);
    }

    /** Messages currently owned by live handles. */
    std::size_t inUse() const { return inUse_; }

    /** Total slots across all slabs. */
    std::size_t capacity() const { return slabs_.size() * slabSize; }

  private:
    friend class PooledMessage;

    static constexpr std::size_t slabSize = 128;

    void
    addSlab()
    {
        slabs_.push_back(std::make_unique<Message[]>(slabSize));
        Message *slab = slabs_.back().get();
        free_.reserve(free_.size() + slabSize);
        for (std::size_t i = slabSize; i > 0; --i)
            free_.push_back(slab + (i - 1));
    }

    void
    release(Message *m)
    {
        // Reset the slot so a held payload (std::any can own a large
        // buffer) is freed now, not when the slot happens to recycle.
        *m = Message{};
        free_.push_back(m);
        --inUse_;
    }

    std::vector<std::unique_ptr<Message[]>> slabs_;
    std::vector<Message *> free_;
    std::size_t inUse_ = 0;
};

inline void
PooledMessage::reset() noexcept
{
    if (msg_ != nullptr) {
        pool_->release(msg_);
        pool_ = nullptr;
        msg_ = nullptr;
    }
}

} // namespace tli::panda

#endif // TWOLAYER_PANDA_MESSAGE_POOL_H_
