/**
 * @file
 * The records exchanged by the Panda layer: the Envelope every send
 * travels in (header and payload value in one refcounted allocation)
 * and the Message a receiver takes out of its mailbox.
 */

#ifndef TWOLAYER_PANDA_MESSAGE_H_
#define TWOLAYER_PANDA_MESSAGE_H_

#include <cstdint>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "sim/logging.h"
#include "sim/types.h"

namespace tli::panda {

/** Bytes the messaging layer adds to every payload on the wire. */
constexpr std::uint64_t headerBytes = 32;

/** Routing metadata of one send, stored once in its envelope. */
struct Header
{
    Rank src = invalidNode;
    int tag = 0;
    /** Reply tag for RPC requests; -1 for one-way messages. */
    int replyTag = -1;
    /** Simulated size on the wire (payload + header). */
    std::uint64_t wireBytes = 0;
};

/**
 * One send's header and payload value in a single allocation, behind a
 * refcounted handle. It converts implicitly from any copyable value,
 * so `panda.send(..., 42)` builds the envelope at the call site and
 * Panda only fills in the header. Each delivery closure, and each
 * receiver of a multicast, holds a reference to the same envelope;
 * the last reference frees it, in whatever order the simulation, the
 * fabric and Panda are destroyed.
 *
 * The refcount is a plain integer. A simulation is single-threaded and
 * its envelopes never leave it: the exec engine runs whole simulations
 * in parallel, never one simulation across threads.
 */
class Envelope
{
  public:
    Envelope() noexcept = default;

    template <typename T, typename D = std::decay_t<T>,
              typename = std::enable_if_t<!std::is_same_v<D, Envelope>>>
    Envelope(T &&value) // NOLINT: implicit, senders pass plain values
        : box_(new Holder<D>(std::forward<T>(value)))
    {
        // A receiver that shares the envelope takes a copy.
        static_assert(std::is_copy_constructible_v<D>,
                      "payload types must be copyable");
    }

    Envelope(const Envelope &other) noexcept : box_(other.box_)
    {
        if (box_ != nullptr)
            ++box_->refs;
    }

    Envelope(Envelope &&other) noexcept
        : box_(std::exchange(other.box_, nullptr))
    {
    }

    Envelope &
    operator=(Envelope other) noexcept
    {
        std::swap(box_, other.box_);
        return *this;
    }

    ~Envelope()
    {
        if (box_ != nullptr && --box_->refs == 0)
            delete box_;
    }

    /** The header; a send without a payload gets a bare envelope. */
    Header &
    header()
    {
        if (box_ == nullptr)
            box_ = new Box(typeid(void));
        return box_->header;
    }

    /** The payload if it is a T, else null. */
    template <typename T>
    T *
    get() const noexcept
    {
        using D = std::remove_cv_t<T>;
        if (box_ == nullptr || *box_->type != typeid(D))
            return nullptr;
        return &static_cast<Holder<D> *>(box_)->value;
    }

    /** Whether this is the only reference to the envelope. */
    bool
    unique() const noexcept
    {
        return box_ != nullptr && box_->refs == 1;
    }

  private:
    struct Box
    {
        explicit Box(const std::type_info &t) noexcept : type(&t) {}
        Box(const Box &) = delete;
        Box &operator=(const Box &) = delete;
        virtual ~Box() = default;

        Header header;
        std::uint32_t refs = 1;
        const std::type_info *type;
    };

    template <typename D>
    struct Holder final : Box
    {
        template <typename T>
        explicit Holder(T &&v) : Box(typeid(D)), value(std::forward<T>(v))
        {
        }

        D value;
    };

    Box *box_ = nullptr;
};

/**
 * A delivered message: the envelope's header, the receiving rank, and
 * a reference to the envelope's payload.
 */
struct Message
{
    Rank src = invalidNode;
    Rank dst = invalidNode;
    int tag = 0;
    /** Simulated size on the wire (payload + header). */
    std::uint64_t wireBytes = 0;
    /** Reply tag for RPC requests; -1 for one-way messages. */
    int replyTag = -1;

    Message() = default;

    /** The delivery of @p env to @p to; takes over the reference. */
    Message(Envelope env, Rank to)
        : src(env.header().src), dst(to), tag(env.header().tag),
          wireBytes(env.header().wireBytes),
          replyTag(env.header().replyTag), envelope_(std::move(env))
    {
    }

    /** Whether the payload holds a T (protocol dispatch). */
    template <typename T>
    bool
    holds() const
    {
        return envelope_.get<T>() != nullptr;
    }

    /** Typed payload access; panics on type mismatch (a program bug). */
    template <typename T>
    const T &
    as() const
    {
        const T *p = envelope_.get<T>();
        TLI_ASSERT(p != nullptr, "payload type mismatch on tag ", tag);
        return *p;
    }

    /**
     * The payload as this receiver's own value: moved out when no
     * other receiver shares the envelope, copied otherwise.
     */
    template <typename T>
    T
    take()
    {
        T *p = envelope_.get<T>();
        TLI_ASSERT(p != nullptr, "payload type mismatch on tag ", tag);
        if (envelope_.unique())
            return std::move(*p);
        return *p;
    }

  private:
    Envelope envelope_;
};

} // namespace tli::panda

#endif // TWOLAYER_PANDA_MESSAGE_H_
