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

/**
 * How a link's costs move with the two wide-area knobs the study
 * varies: the one-way WAN latency L and the inverse WAN bandwidth
 * 1/B. The simulator's plain Time ignores it; the predictor's affine
 * time (analysis::Affine) carries it along every timestamp.
 */
struct LinkSlope
{
    /** d(latency)/dL: 1 per full WAN crossing, a share of it per
     *  segment of a split one (WanShape::segmentShare), 0 off the
     *  wide area. */
    double latency = 0;
    /** Whether the occupancy's bytes term scales with 1/B. */
    bool bandwidth = false;
};

/**
 * A delay of @p seconds as time type T, whose derivatives with
 * respect to L and 1/B are @p dLat and @p dInvBw. Any T other than
 * Time must aggregate-initialize from (value, dLat, dInvBw).
 */
template <typename T>
inline T
delayAs(Time seconds, double dLat, double dInvBw)
{
    if constexpr (std::is_same_v<T, Time>)
        return seconds;
    else
        return T{seconds, dLat, dInvBw};
}

/** The later of two times; @p a wins exact ties, the rule every
 *  busy-horizon and delivery-order clamp uses (analysis::Affine
 *  overloads it with the same rule). */
inline Time
later(Time a, Time b)
{
    return b > a ? b : a;
}

/**
 * A single serializing link over time type T (Time in the simulator,
 * analysis::Affine in the predictor's replay). Not a process:
 * transmit() advances the link's busy horizon and returns the
 * delivery time; the caller schedules the delivery event. This is the
 * one copy of the serialization arithmetic: the replay runs the same
 * floating-point operations on its value component, so a replay at
 * the traced point reproduces the traced stamps bit-for-bit.
 */
template <typename T>
class BasicLink
{
  public:
    /** @param idle the time origin the link starts idle at. */
    explicit BasicLink(const LinkParams &params, const T &idle = T{})
        : params_(params), busyUntil_(idle)
    {
        TLI_ASSERT(params.bandwidth > 0, "bandwidth must be positive");
        TLI_ASSERT(params.latency >= 0 && params.perMessageCost >= 0,
                   "negative link timing");
    }

    /**
     * Inject a message of @p bytes at time @p now; @p slope says how
     * this link's costs move with L and 1/B.
     * @return the time at which the message is fully delivered at the
     *         far end of this link.
     */
    T
    transmit(const T &now, std::uint64_t bytes,
             const LinkSlope &slope = {})
    {
        const T start = later(busyUntil_, now);
        const Time occupancy =
            params_.perMessageCost +
            static_cast<double>(bytes) / params_.bandwidth;
        busyUntil_ = start + delayAs<T>(occupancy, 0,
                                        slope.bandwidth ? bytes : 0);
        stats_.messages += 1;
        stats_.bytes += bytes;
        stats_.busyTime += occupancy;
        return busyUntil_ + delayAs<T>(params_.latency, slope.latency, 0);
    }

    /** Earliest time a new message could begin serializing. */
    const T &busyUntil() const { return busyUntil_; }

    const LinkParams &params() const { return params_; }
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
