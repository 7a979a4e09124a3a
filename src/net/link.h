/**
 * @file
 * A serializing network link with latency, bandwidth, and per-message
 * cost — the unit the NUMA-gap study varies.
 */

#ifndef TWOLAYER_NET_LINK_H_
#define TWOLAYER_NET_LINK_H_

#include <cstdint>
#include <type_traits>

#include "sim/logging.h"
#include "sim/types.h"

namespace tli::net {

/**
 * Link timing parameters (LogGP-flavoured).
 *
 * A message of size S injected at time t on an idle link is delivered at
 *   t + perMessageCost + S / bandwidth + latency.
 * The (perMessageCost + S/bandwidth) term occupies the link, so
 * back-to-back messages serialize; the latency term is pipelined
 * propagation and does not occupy the link.
 */
struct LinkParams
{
    /** One-way propagation delay in seconds. */
    Time latency = 0;
    /** Sustained bandwidth in bytes per second. */
    double bandwidth = 1e9;
    /** Fixed occupancy per message (protocol overhead), seconds. */
    Time perMessageCost = 0;
};

/** Cumulative usage counters for one link or one class of links. */
struct LinkStats
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    /** Total serialization (occupancy) time, seconds. */
    Time busyTime = 0;

    void
    operator+=(const LinkStats &other)
    {
        messages += other.messages;
        bytes += other.bytes;
        busyTime += other.busyTime;
    }
};

/** The two delays one transfer costs on a link, as time type T. */
template <typename T>
struct LinkDelays
{
    /** Per-message cost plus serialization: holds the link, so
     *  back-to-back transfers queue behind it. */
    T occupancy;
    /** Pipelined propagation after the occupancy. */
    T latency;
};

/**
 * How a link turns its params and a byte count into delays of time
 * type T: the one point of the time-type contract that sees link
 * parameters. Time takes the params as they are. A time type that
 * carries several evaluation points at once specializes it
 * (analysis::Lanes): there a varying link -- a wide-area segment --
 * gets each lane's own params and slopes through a Variation, and
 * every other link's params apply to all lanes alike.
 */
template <typename T>
struct LinkCost
{
    /** What a varying link carries beyond its params; Time has no
     *  knobs to vary. */
    struct Variation
    {
    };

    /** The delays of @p bytes on a link with @p params. */
    static LinkDelays<T>
    of(const LinkParams &params, std::uint64_t bytes, const Variation *)
    {
        return {params.perMessageCost +
                    static_cast<double>(bytes) / params.bandwidth,
                params.latency};
    }

    /** A fixed delay of @p seconds (the loopback charge). */
    static T fixed(Time seconds) { return seconds; }
};

/** The later of two times; @p a wins exact ties, the rule every
 *  busy-horizon and delivery-order clamp uses (analysis::Lanes
 *  overloads it with the same rule per lane). */
inline Time
later(Time a, Time b)
{
    return b > a ? b : a;
}

/**
 * A single serializing link over time type T (Time in the simulator,
 * analysis::Lanes in the predictor's replay). Not a process:
 * transmit() advances the link's busy horizon and returns the
 * delivery time; the caller schedules the delivery event. This is the
 * one copy of the serialization arithmetic: the replay runs the same
 * floating-point operations in every lane, so a replay at the traced
 * point reproduces the traced stamps bit-for-bit.
 */
template <typename T>
class BasicLink
{
  public:
    using Variation = typename LinkCost<T>::Variation;

    /** @param idle the time origin the link starts idle at. */
    explicit BasicLink(const LinkParams &params, const T &idle = T{})
        : params_(params), busyUntil_(idle)
    {
        TLI_ASSERT(params.bandwidth > 0, "bandwidth must be positive");
        TLI_ASSERT(params.latency >= 0 && params.perMessageCost >= 0,
                   "negative link timing");
    }

    /**
     * Inject a message of @p bytes at time @p now; @p vary, when
     * given, replaces this link's params per lane (LinkCost).
     * @return the time at which the message is fully delivered at the
     *         far end of this link.
     */
    T
    transmit(const T &now, std::uint64_t bytes,
             const Variation *vary = nullptr)
    {
        const T start = later(busyUntil_, now);
        const LinkDelays<T> d = LinkCost<T>::of(params_, bytes, vary);
        busyUntil_ = start + d.occupancy;
        // Usage is the simulator's report; a replay reads none.
        if constexpr (std::is_same_v<T, Time>) {
            stats_.messages += 1;
            stats_.bytes += bytes;
            stats_.busyTime += d.occupancy;
        }
        return busyUntil_ + d.latency;
    }

    /** Earliest time a new message could begin serializing. */
    const T &busyUntil() const { return busyUntil_; }

    const LinkParams &params() const { return params_; }
    /** Usage since the last resetStats(); counted on Time only. */
    const LinkStats &stats() const { return stats_; }

    /** Zero the usage counters; the busy horizon is untouched. */
    void resetStats() { stats_ = LinkStats{}; }

  private:
    LinkParams params_;
    T busyUntil_;
    LinkStats stats_;
};

/** The simulator's link. */
using Link = BasicLink<Time>;

} // namespace tli::net

#endif // TWOLAYER_NET_LINK_H_
