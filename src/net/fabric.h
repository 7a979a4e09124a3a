/**
 * @file
 * The two-layer interconnect fabric: routes messages between ranks,
 * serializing on per-node NICs, per-cluster-pair wide-area links and
 * per-gateway egress links, and accounts traffic per layer. The link
 * chain itself is net::Interconnect, a template over the time type
 * that the simulator and the analytical replay share.
 */

#ifndef TWOLAYER_NET_FABRIC_H_
#define TWOLAYER_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/impairments.h"
#include "net/link.h"
#include "net/pair_map.h"
#include "net/topology.h"
#include "net/wan_shape.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/types.h"

namespace tli::net {

/** Timing parameters for both layers of the interconnect. */
struct FabricParams
{
    /** Intra-cluster (system-area, "Myrinet") link parameters. */
    LinkParams local;
    /** Inter-cluster (wide-area, "ATM") link parameters. */
    LinkParams wide;
    /**
     * Gateway machine processing capacity: every byte entering or
     * leaving a cluster over the wide area passes through the
     * dedicated gateway's protocol stack (software TCP on the DAS).
     * Defaults to an effectively unbounded gateway; Profile::das()
     * sets a realistic finite value.
     */
    LinkParams gateway{0.0, 1e12, 0.0};

    /** Wide-area shape; see net::WanShape. */
    WanShape wanShape;

    /**
     * Wide-area latency variability (the paper's §1 future-work item:
     * "the impact of variations in latency and bandwidth, which often
     * occur on wide area links"): each wide-area message's propagation
     * latency is drawn uniformly from
     * [latency*(1-jitter), latency*(1+jitter)]. Per-(source,
     * destination) delivery order is still preserved, as TCP does.
     */
    double wanJitter = 0.0;
    /** Seed of the jitter stream (runs stay reproducible). */
    std::uint64_t jitterSeed = 0x1234;

    /**
     * Wide-area impairments (message loss, gateway outage windows).
     * Inactive by default: a fabric with no impairments takes exactly
     * the pre-impairment code path, consumes no random draws for
     * them, and is bit-identical to one built before they existed.
     */
    Impairments impairments;
};

/**
 * Counters of the reliable-delivery protocol layered above the fabric
 * (see panda::Reliable). The fabric owns the storage — it is the
 * single stats surface — and the messaging layer increments the
 * counters through Fabric::deliveryCounters(); resetStats() zeroes
 * them together with the traffic counters.
 */
struct DeliveryStats
{
    /** Data frames re-sent after a timeout. */
    std::uint64_t retransmits = 0;
    /** Data frames suppressed at the receiver as already seen. */
    std::uint64_t duplicates = 0;
    /** Acknowledgements delivered for still-pending frames. */
    std::uint64_t acks = 0;
    /** Acknowledgements for frames that were already acknowledged. */
    std::uint64_t duplicateAcks = 0;
};

/**
 * One physical wide-area link's usage, labeled with its place in the
 * configured WAN shape (WanShape::linkRole): a dedicated ("pair")
 * link of the fully connected mesh, a star access link ("up"/"down"),
 * a ring hop ("cw"/"ccw"), or a torus/mesh per-dimension hop
 * ("dim<k>+"/"dim<k>-"). @c b is the far cluster for pair and
 * torus/mesh hop links, invalidCluster for the single-ended star/ring
 * links and unused mesh wraparound edges.
 */
struct WanLinkEntry
{
    ClusterId a = invalidCluster;
    ClusterId b = invalidCluster;
    const char *kind = "";
    LinkStats stats;
};

/**
 * One consistent snapshot of every fabric counter, taken by
 * Fabric::stats(). This is the single stats surface: layer aggregates,
 * per-cluster outbound traffic, per-WAN-link, per-NIC, and per-gateway
 * usage, all covering the interval since the last resetStats().
 */
struct FabricStats
{
    WanShape wanShape;
    int clusters = 0;

    /** Local-layer aggregate (NIC + gateway-local hops). */
    LinkStats intra;
    /** Wide-area aggregate. */
    LinkStats inter;
    /** Outbound wide-area traffic per source cluster. */
    std::vector<LinkStats> interPerCluster;
    /**
     * Total gateway-to-gateway wide-area transit time, summed over
     * messages (queueing + serialization + propagation, before
     * jitter). The per-message "wan" trace spans sum to exactly this.
     */
    Time wanTransit = 0;

    /**
     * Every wide-area link, indexed as the fabric allocates them
     * (fully connected: [a*C + b] incl. unused diagonals; star/ring:
     * up/cw [0, C) then down/ccw [C, 2C); torus/mesh: the dim-k
     * +/- links of cluster c at [(2k)*C + c] / [(2k+1)*C + c]). Use
     * wanLink() for route-aware lookup.
     */
    std::vector<WanLinkEntry> wanLinks;
    /** Messages lost to random wide-area drops (Impairments::lossRate). */
    std::uint64_t wanLossDrops = 0;
    /** Messages refused because the WAN was inside an outage window. */
    std::uint64_t wanOutageDrops = 0;
    /** Rank pairs that exchanged at least one wide-area message — the
     *  population of the sparse ordering table, whose memory is
     *  O(this) rather than O(ranks^2). */
    std::uint64_t orderedPairs = 0;
    /** Bytes held by the sparse ordering table. */
    std::uint64_t orderingBytes = 0;
    /** Reliable-delivery protocol counters (zero when no reliability
     *  layer runs above this fabric). */
    DeliveryStats delivery;
    /** Outbound NIC usage per rank. */
    std::vector<LinkStats> nics;
    /** Per-cluster gateway protocol usage, by direction. */
    std::vector<LinkStats> gatewayOut;
    std::vector<LinkStats> gatewayIn;

    /**
     * Usage of the wide-area link a transfer from cluster @p a to
     * cluster @p b serializes on first. Shape-aware through
     * WanShape::firstHopIndex: fully connected reports the dedicated
     * (a, b) link, star the up-link of @p a, ring the first hop of
     * the shorter arc, torus/mesh the first dimension-ordered hop.
     * Asserts that @p a and @p b are distinct, valid clusters.
     */
    const LinkStats &wanLink(ClusterId a, ClusterId b) const;

    /**
     * Occupancy of the busiest wide-area link as a fraction of
     * @p elapsed seconds — 1.0 means some link of the configured
     * shape was saturated for the whole interval. Shape-agnostic: it
     * scans every link the shape enumerates.
     */
    double maxWanUtilization(Time elapsed) const;
};

/**
 * The two-layer interconnect's link chain over time type T: the link
 * inventory (a NIC per rank, outbound and inbound gateways per
 * cluster, the WAN segments the WanShape enumerates), per-link
 * serialization, the wide-area route walk and the per-(src, dst)
 * delivery-order clamp. Fabric runs it on Time inside the simulator;
 * analysis::Predictor runs it on affine time to replay a trace. One
 * copy of the arithmetic serves both, so a replay at the traced point
 * reproduces the simulator's stamps exactly.
 *
 * T needs `+`, a `later(a, b)` overload (see net::later) and, unless
 * it is Time, aggregate initialization from (value, dLat, dInvBw).
 */
template <typename T>
class Interconnect
{
  public:
    /** The stamps of one inter-cluster transfer. */
    struct Crossing
    {
        T atGateway{};       ///< off the sender's NIC
        T gatewayDone{};     ///< through the source gateway's stack
        T atRemoteGateway{}; ///< across the wide area
        T arrival{};         ///< through the destination gateway
    };

    /**
     * @param origin    the time every link starts idle at; a pair
     *                  that never spoke reads as this horizon too.
     * @param wanVaries whether the WAN segments' costs move with the
     *                  study's knobs (LinkSlope); Time ignores it.
     */
    Interconnect(int ranks, int clusters, const FabricParams &params,
                 const T &origin = T{}, bool wanVaries = false)
        : clusters_(clusters), shape_(params.wanShape),
          loopbackCost_(params.local.perMessageCost),
          wanSlope_(wanVaries ? LinkSlope{shape_.segmentShare(), true}
                              : LinkSlope{}),
          lastDelivery_(origin)
    {
        TLI_ASSERT(shape_.validateFor(clusters).empty(),
                   "invalid wan shape: ", shape_.validateFor(clusters));
        links_.nics.assign(ranks, BasicLink<T>(params.local, origin));
        links_.wan.assign(
            shape_.linkCount(clusters),
            BasicLink<T>(shape_.segmentParams(params.wide), origin));
        LinkParams inbound = params.gateway;
        inbound.latency += params.local.latency; // final local hop
        links_.gatewayOut.assign(clusters,
                                 BasicLink<T>(params.gateway, origin));
        links_.gatewayIn.assign(clusters, BasicLink<T>(inbound, origin));
    }

    /** A send to self: one local per-message cost, no link. */
    T
    loopback(const T &now) const
    {
        return now + delayAs<T>(loopbackCost_, 0, 0);
    }

    /** A message (or local multicast) inside @p src's cluster: one
     *  serialization on its NIC. */
    T
    intraCluster(Rank src, const T &now, std::uint64_t bytes)
    {
        return links_.nics[src].transmit(now, bytes);
    }

    /**
     * Carry a transfer from rank @p src in cluster @p sc to cluster
     * @p dc, filling @p c: the sender's NIC, @p sc's outbound gateway,
     * then — if `admit(T &at)` lets it through, possibly deferring
     * the injection time @p at — the WAN segments of the shape's
     * route and @p dc's inbound gateway. A refused transfer has
     * occupied the NIC and the source gateway only; its later stamps
     * collapse onto gatewayDone.
     * @return false if @p admit refused it.
     */
    template <typename Admit>
    bool
    interCluster(Rank src, ClusterId sc, ClusterId dc, const T &now,
                 std::uint64_t bytes, Crossing &c, Admit &&admit)
    {
        c.atGateway = links_.nics[src].transmit(now, bytes);
        c.gatewayDone =
            links_.gatewayOut[sc].transmit(c.atGateway, bytes);
        T at = c.gatewayDone;
        if (!admit(at)) {
            c.atRemoteGateway = c.arrival = c.gatewayDone;
            return false;
        }
        shape_.forEachHop(clusters_, sc, dc, [&](std::size_t link) {
            at = links_.wan[link].transmit(at, bytes, wanSlope_);
        });
        c.atRemoteGateway = at;
        c.arrival = links_.gatewayIn[dc].transmit(at, bytes);
        return true;
    }

    /** Clamp @p arrival so (src, dst) delivery stays in send order
     *  (TCP), and record it; one ordering-map probe. */
    T
    inOrder(Rank src, Rank dst, const T &arrival)
    {
        T &last = lastDelivery_.ref(src, dst);
        last = later(arrival, last);
        return last;
    }

    /** A bundle shares one delivery time: clamp @p arrival against
     *  every destination's horizon, then record it for each. */
    T
    inOrder(Rank src, const std::vector<Rank> &dsts, T arrival)
    {
        for (Rank d : dsts)
            arrival = later(arrival, lastDelivery_.get(src, d));
        for (Rank d : dsts)
            lastDelivery_.ref(src, d) = arrival;
        return arrival;
    }

    /** The link inventory; wan in the WanShape's enumeration order
     *  (linkCount/linkRole). */
    struct Links
    {
        std::vector<BasicLink<T>> nics;
        std::vector<BasicLink<T>> wan;
        std::vector<BasicLink<T>> gatewayOut;
        /** Inbound gateway processing, including the final local hop. */
        std::vector<BasicLink<T>> gatewayIn;
    };

    const Links &links() const { return links_; }
    /** The per-pair ordering table. */
    const PairMap<T> &ordering() const { return lastDelivery_; }

    /** Zero every link's usage counters; horizons are untouched. */
    void
    resetStats()
    {
        for (auto *v : {&links_.nics, &links_.wan, &links_.gatewayOut,
                        &links_.gatewayIn}) {
            for (BasicLink<T> &l : *v)
                l.resetStats();
        }
    }

  private:
    int clusters_;
    WanShape shape_;
    Time loopbackCost_;
    /** How the WAN segments' costs move with L and 1/B; every other
     *  link's are fixed. */
    LinkSlope wanSlope_;
    Links links_;
    /**
     * Last delivery time per (src, dst) rank pair. Sparse: memory is
     * O(pairs that actually communicate), so a 100k-rank fabric costs
     * nothing until traffic flows.
     */
    PairMap<T> lastDelivery_;
};

/**
 * The routed two-layer fabric.
 *
 * An intra-cluster message serializes on the sender's NIC and arrives
 * one local latency later. An inter-cluster message serializes on the
 * sender's NIC (hop to the local gateway), then on the wide-area link
 * for the (source, destination) cluster pair, then on the destination
 * gateway's egress link for the final local hop. Because wide-area
 * links are a per-cluster-pair resource, concurrent senders in one
 * cluster contend exactly as the paper describes (3 x 6 MByte/s links
 * out of each of 4 clusters => 18 MByte/s per cluster cap).
 */
class Fabric
{
  public:
    Fabric(sim::Simulation &sim, const Topology &topo,
           const FabricParams &params);

    /**
     * Send @p bytes from @p src to @p dst; @p deliver fires at the
     * arrival time. Sending to self delivers after one local
     * per-message cost with no latency.
     */
    void send(Rank src, Rank dst, std::uint64_t bytes,
              sim::EventFn deliver);

    /**
     * Hardware multicast inside the sender's cluster ("multicast
     * primitives inside clusters"): one NIC serialization delivers to
     * every rank in @p dsts, all of which must live in src's cluster.
     */
    void multicastLocal(Rank src, const std::vector<Rank> &dsts,
                        std::uint64_t bytes,
                        std::function<void(Rank)> deliver);

    /**
     * Point-to-point transfer to a remote cluster's gateway followed by
     * a gateway-egress multicast to @p dsts (all in cluster @p dc).
     * This is the wide-area half of the paper's multicast tree.
     */
    void multicastToCluster(Rank src, ClusterId dc,
                            const std::vector<Rank> &dsts,
                            std::uint64_t bytes,
                            std::function<void(Rank)> deliver);

    const Topology &topology() const { return topo_; }
    const FabricParams &params() const { return params_; }

    /**
     * Mutable reliable-delivery counters for the messaging layer
     * running above this fabric (panda::Reliable). Kept here so
     * stats() snapshots traffic and protocol behaviour together and
     * resetStats() clears both at measurement start.
     */
    DeliveryStats &deliveryCounters() { return delivery_; }

    /**
     * One consistent snapshot of every fabric counter (layer
     * aggregates, per-link, per-NIC, per-gateway), covering the
     * interval since the last resetStats().
     */
    FabricStats stats() const;

    /**
     * Reset every traffic counter — aggregates and per-link alike —
     * so the next stats() snapshot covers only the measured phase
     * (the paper excludes startup the same way). Notifies the trace
     * sink, so aggregating sinks stay in lockstep with the counters.
     */
    void resetStats();

  private:
    using Crossing = Interconnect<Time>::Crossing;

    /**
     * The inter-cluster steps send() and multicastToCluster() share:
     * the link chain with impairment admission between the source
     * gateway and the WAN, then the jitter draw on the arrival.
     * Counts the traffic, a lost message's included.
     * @return false if the message was lost: it delivers nothing.
     */
    bool crossClusters(Rank src, ClusterId sc, ClusterId dc, Time now,
                       std::uint64_t bytes, Crossing &c);

    /** Sampled latency perturbation for one wide-area message. */
    Time wanLatencyAdjust();

    /**
     * Apply the configured impairments to a wide-area injection at
     * time @p at (the moment the message clears the source gateway).
     * Returns false if the message is lost — the caller must not
     * deliver it — and otherwise leaves in @p at the (possibly
     * deferred, under OutagePolicy::queue) WAN injection time.
     */
    bool admitWan(Time &at);

    sim::Simulation &sim_;
    Topology topo_;
    FabricParams params_;
    sim::Random jitterRng_;
    /** Loss stream; drawn once per WAN injection iff lossRate > 0,
     *  and independent of jitterRng_ so enabling loss leaves the
     *  jitter draws untouched. */
    sim::Random lossRng_;
    /** Links and the per-pair ordering table. */
    Interconnect<Time> net_;

    /** Running layer aggregates; stats() merges in per-link counters. */
    LinkStats intra_;
    LinkStats inter_;
    std::vector<LinkStats> interPerCluster_;
    Time wanTransit_ = 0;
    std::uint64_t lossDrops_ = 0;
    std::uint64_t outageDrops_ = 0;
    DeliveryStats delivery_;
    /** Next MessageTrace id (advanced only while a sink is attached). */
    std::uint64_t traceSeq_ = 0;
};

} // namespace tli::net

#endif // TWOLAYER_NET_FABRIC_H_
