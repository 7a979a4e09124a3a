/**
 * @file
 * The two-layer interconnect fabric: routes messages between ranks,
 * serializing on per-node NICs, per-cluster-pair wide-area links and
 * per-gateway egress links, and accounts traffic per layer.
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

    /** Arrival time a message would have if injected now (no send). */
    Time probeArrival(Rank src, Rank dst, std::uint64_t bytes) const;

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
    /**
     * Walk the wide-area links a (sc -> dc) transfer crosses under
     * the configured shape (WanShape::forEachHop), in route order,
     * calling `hop(linkIndex, at, bytes) -> Time` per segment with
     * the previous segment's delivery time. Shared by the mutating
     * wanTransit() and the const probe/stats paths, so routing can
     * never diverge between them.
     */
    template <typename HopFn>
    Time routeWan(ClusterId sc, ClusterId dc, Time at,
                  std::uint64_t bytes, HopFn &&hop) const;

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

    /** Clamp @p arrival so (src, dst) delivery stays in send order. */
    Time inOrder(Rank src, Rank dst, Time arrival);

    sim::Simulation &sim_;
    Topology topo_;
    FabricParams params_;
    sim::Random jitterRng_;
    /** Loss stream; drawn once per WAN injection iff lossRate > 0,
     *  and independent of jitterRng_ so enabling loss leaves the
     *  jitter draws untouched. */
    sim::Random lossRng_;
    /**
     * Last delivery time per (src, dst) rank pair (TCP ordering).
     * Sparse: memory is O(pairs that actually communicate), so a
     * 100k-rank fabric costs nothing until traffic flows — the flat
     * R*R vector it replaced was 80 GB at that scale. Lookup stays
     * O(1) (open addressing), absent pairs read as the flat table's
     * zero-fill.
     */
    PairTimeMap lastDelivery_;

    /**
     * Carry one message across the wide area from cluster @p sc to
     * cluster @p dc, starting no earlier than @p at; serializes on
     * the links the configured topology routes it over and returns
     * the time it reaches the destination gateway.
     */
    Time wanTransit(ClusterId sc, ClusterId dc, Time at,
                    std::uint64_t bytes);

    /** Non-mutating wanTransit(): same routing, no link occupancy. */
    Time probeWanTransit(ClusterId sc, ClusterId dc, Time at,
                         std::uint64_t bytes) const;

    /** One outbound NIC link per rank (local layer). */
    std::vector<Link> nics_;
    /**
     * Wide-area links, laid out as the configured WanShape
     * enumerates them (linkCount/linkRole): fully connected directed
     * pairs [src*C + dst]; star up [0, C) / down [C, 2C); ring cw
     * [0, C) / ccw [C, 2C); torus/mesh per-dimension directed hops.
     */
    std::vector<Link> wanLinks_;
    /** Per-cluster gateway protocol processing, outbound direction. */
    std::vector<Link> gatewayOut_;
    /** Per-cluster gateway protocol processing, inbound direction
     *  (also covers the final local hop to the destination). */
    std::vector<Link> gatewayIn_;

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
