#include "net/fabric.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/trace.h"

namespace tli::net {

Fabric::Fabric(sim::Simulation &sim, const Topology &topo,
               const FabricParams &params)
    : sim_(sim), topo_(topo), params_(params),
      jitterRng_(params.jitterSeed),
      lossRng_(params.impairments.lossSeed)
{
    TLI_ASSERT(params.wanJitter >= 0 && params.wanJitter <= 1,
               "wanJitter must be within [0, 1]");
    const Impairments &imp = params.impairments;
    TLI_ASSERT(imp.lossRate >= 0 && imp.lossRate < 1,
               "lossRate must be within [0, 1)");
    TLI_ASSERT(imp.outageStart >= 0 && imp.outageDuration >= 0 &&
                   imp.outagePeriod >= 0,
               "negative outage timing");
    TLI_ASSERT(imp.outagePeriod <= 0 ||
                   imp.outagePeriod > imp.outageDuration,
               "outage period must exceed the outage duration");
    const int ranks = topo_.totalRanks();
    const int clusters = topo_.clusterCount();
    TLI_ASSERT(params_.wanShape.validateFor(clusters).empty(),
               "invalid wan shape: ",
               params_.wanShape.validateFor(clusters));
    nics_.reserve(ranks);
    for (int i = 0; i < ranks; ++i)
        nics_.emplace_back(params_.local);
    // The ordering table (lastDelivery_) starts empty: construction
    // cost is O(ranks), not O(ranks^2), and memory grows only with
    // pairs that actually communicate.
    const std::size_t wan_count =
        params_.wanShape.linkCount(clusters);
    wanLinks_.reserve(wan_count);
    const LinkParams wan_link =
        params_.wanShape.segmentParams(params_.wide);
    for (std::size_t i = 0; i < wan_count; ++i)
        wanLinks_.emplace_back(wan_link);
    gatewayOut_.reserve(clusters);
    gatewayIn_.reserve(clusters);
    LinkParams inbound = params_.gateway;
    inbound.latency += params_.local.latency; // final local hop
    for (int i = 0; i < clusters; ++i) {
        gatewayOut_.emplace_back(params_.gateway);
        gatewayIn_.emplace_back(inbound);
    }
    interPerCluster_.resize(clusters);
}

void
Fabric::send(Rank src, Rank dst, std::uint64_t bytes,
             sim::EventFn deliver)
{
    const Time now = sim_.now();
    const ClusterId sc = topo_.clusterOf(src);
    const ClusterId dc = topo_.clusterOf(dst);

    Time arrival;
    if (src == dst) {
        // Loopback: charge only the per-message protocol cost.
        arrival = now + params_.local.perMessageCost;
        intra_.messages += 1;
        intra_.bytes += bytes;
        if (auto *t = sim_.trace()) {
            t->onMessage({traceSeq_++, src, dst, 1, bytes, false,
                          false, sc, dc, now, arrival, arrival,
                          arrival, arrival});
        }
    } else if (sc == dc) {
        arrival = nics_[src].transmit(now, bytes);
        intra_.messages += 1;
        intra_.bytes += bytes;
        if (auto *t = sim_.trace()) {
            t->onMessage({traceSeq_++, src, dst, 1, bytes, false,
                          false, sc, dc, now, arrival, arrival,
                          arrival, arrival});
        }
    } else {
        // Hop to the local gateway over the sender's NIC...
        Time at_gateway = nics_[src].transmit(now, bytes);
        // ...through the gateway's protocol stack...
        Time gw_done = gatewayOut_[sc].transmit(at_gateway, bytes);
        // ...and, if the impairment model lets it through, across the
        // wide area. A lost message has occupied the NIC and source
        // gateway; it never reaches a WAN link and never delivers.
        Time wan_at = gw_done;
        if (!admitWan(wan_at)) {
            intra_.messages += 1;
            intra_.bytes += bytes;
            if (auto *t = sim_.trace()) {
                t->onMessage({traceSeq_++, src, dst, 1, bytes, true,
                              true, sc, dc, now, at_gateway, gw_done,
                              gw_done, gw_done});
            }
            return;
        }
        Time at_remote_gw = wanTransit(sc, dc, wan_at, bytes);
        // ...and through the remote gateway to the target.
        arrival = gatewayIn_[dc].transmit(at_remote_gw, bytes);
        arrival = inOrder(src, dst, arrival + wanLatencyAdjust());

        intra_.messages += 2; // gateway hops on both sides
        intra_.bytes += 2 * bytes;
        inter_.messages += 1;
        inter_.bytes += bytes;
        wanTransit_ += at_remote_gw - gw_done;
        LinkStats &per = interPerCluster_[sc];
        per.messages += 1;
        per.bytes += bytes;
        if (auto *t = sim_.trace()) {
            t->onMessage({traceSeq_++, src, dst, 1, bytes, true,
                          false, sc, dc, now, at_gateway, gw_done,
                          at_remote_gw, arrival});
        }
    }

    sim_.scheduleAt(arrival, std::move(deliver));
}

Time
Fabric::probeArrival(Rank src, Rank dst, std::uint64_t bytes) const
{
    const Time now = sim_.now();
    const ClusterId sc = topo_.clusterOf(src);
    const ClusterId dc = topo_.clusterOf(dst);
    if (src == dst)
        return now + params_.local.perMessageCost;
    if (sc == dc)
        return nics_[src].probeTransmit(now, bytes);
    Time a = nics_[src].probeTransmit(now, bytes);
    Time g = gatewayOut_[sc].probeTransmit(a, bytes);
    Time b = probeWanTransit(sc, dc, g, bytes);
    return gatewayIn_[dc].probeTransmit(b, bytes);
}

void
Fabric::multicastLocal(Rank src, const std::vector<Rank> &dsts,
                       std::uint64_t bytes,
                       std::function<void(Rank)> deliver)
{
    if (dsts.empty())
        return;
    const Time now = sim_.now();
    Time arrival = nics_[src].transmit(now, bytes);
    intra_.messages += 1;
    intra_.bytes += bytes;
    if (auto *t = sim_.trace()) {
        const ClusterId sc = topo_.clusterOf(src);
        sim::MessageTrace m{traceSeq_++, src, dsts.front(),
                            static_cast<int>(dsts.size()), bytes,
                            false, false, sc, sc, now, arrival,
                            arrival, arrival, arrival};
        m.fanoutDsts = dsts.data();
        t->onMessage(m);
    }
    // Share one copy of the handler: the per-destination events then
    // capture (shared_ptr, Rank), which stays inside EventFn's inline
    // buffer regardless of the handler's own capture size.
    auto handler =
        std::make_shared<std::function<void(Rank)>>(std::move(deliver));
    for (Rank d : dsts) {
        TLI_ASSERT(topo_.sameCluster(src, d),
                   "multicastLocal crosses clusters");
        sim_.scheduleAt(arrival, [handler, d] { (*handler)(d); });
    }
}

void
Fabric::multicastToCluster(Rank src, ClusterId dc,
                           const std::vector<Rank> &dsts,
                           std::uint64_t bytes,
                           std::function<void(Rank)> deliver)
{
    if (dsts.empty())
        return;
    const Time now = sim_.now();
    const ClusterId sc = topo_.clusterOf(src);
    TLI_ASSERT(sc != dc, "multicastToCluster used for the local cluster");

    Time at_gateway = nics_[src].transmit(now, bytes);
    Time gw_done = gatewayOut_[sc].transmit(at_gateway, bytes);
    // The bundle crosses the wide area as one transfer, so one loss
    // draw (or outage window) claims the whole fan-out.
    Time wan_at = gw_done;
    if (!admitWan(wan_at)) {
        intra_.messages += 1;
        intra_.bytes += bytes;
        if (auto *t = sim_.trace()) {
            sim::MessageTrace m{traceSeq_++, src, dsts.front(),
                                static_cast<int>(dsts.size()), bytes,
                                true, true, sc, dc, now, at_gateway,
                                gw_done, gw_done, gw_done};
            m.fanoutDsts = dsts.data();
            t->onMessage(m);
        }
        return;
    }
    Time at_remote_gw = wanTransit(sc, dc, wan_at, bytes);
    // One inbound pass fans out to all members of the cluster.
    Time arrival = gatewayIn_[dc].transmit(at_remote_gw, bytes);
    // The whole bundle shares one jitter draw and one delivery time;
    // clamp that time against every destination's ordering horizon
    // first, then record it once per destination.
    arrival += wanLatencyAdjust();
    for (Rank d : dsts)
        arrival = std::max(arrival, lastDelivery_.get(src, d));

    intra_.messages += 2;
    intra_.bytes += 2 * bytes;
    inter_.messages += 1;
    inter_.bytes += bytes;
    wanTransit_ += at_remote_gw - gw_done;
    LinkStats &per = interPerCluster_[sc];
    per.messages += 1;
    per.bytes += bytes;
    if (auto *t = sim_.trace()) {
        sim::MessageTrace m{traceSeq_++, src, dsts.front(),
                            static_cast<int>(dsts.size()), bytes,
                            true, false, sc, dc, now, at_gateway,
                            gw_done, at_remote_gw, arrival};
        m.fanoutDsts = dsts.data();
        t->onMessage(m);
    }

    auto handler =
        std::make_shared<std::function<void(Rank)>>(std::move(deliver));
    for (Rank d : dsts) {
        TLI_ASSERT(topo_.clusterOf(d) == dc,
                   "multicast destination outside target cluster");
        lastDelivery_.ref(src, d) = arrival;
        sim_.scheduleAt(arrival, [handler, d] { (*handler)(d); });
    }
}

template <typename HopFn>
Time
Fabric::routeWan(ClusterId sc, ClusterId dc, Time at,
                 std::uint64_t bytes, HopFn &&hop) const
{
    Time t = at;
    params_.wanShape.forEachHop(
        topo_.clusterCount(), sc, dc,
        [&](std::size_t link) { t = hop(link, t, bytes); });
    return t;
}

Time
Fabric::wanTransit(ClusterId sc, ClusterId dc, Time at,
                   std::uint64_t bytes)
{
    return routeWan(sc, dc, at, bytes,
                    [this](std::size_t link, Time t, std::uint64_t n) {
                        return wanLinks_[link].transmit(t, n);
                    });
}

Time
Fabric::probeWanTransit(ClusterId sc, ClusterId dc, Time at,
                        std::uint64_t bytes) const
{
    return routeWan(sc, dc, at, bytes,
                    [this](std::size_t link, Time t, std::uint64_t n) {
                        return wanLinks_[link].probeTransmit(t, n);
                    });
}

const LinkStats &
FabricStats::wanLink(ClusterId a, ClusterId b) const
{
    return wanLinks[wanShape.firstHopIndex(clusters, a, b)].stats;
}

double
FabricStats::maxWanUtilization(Time elapsed) const
{
    if (elapsed <= 0)
        return 0;
    Time busiest = 0;
    for (const WanLinkEntry &link : wanLinks)
        busiest = std::max(busiest, link.stats.busyTime);
    return busiest / elapsed;
}

bool
Fabric::admitWan(Time &at)
{
    const Impairments &imp = params_.impairments;
    if (!imp.active())
        return true;
    if (imp.outageDuration > 0 && imp.down(at)) {
        if (imp.outagePolicy == OutagePolicy::drop) {
            ++outageDrops_;
            return false;
        }
        // Queue at the gateway until the window ends, then compete
        // for the WAN link like any other message.
        at = imp.upAt(at);
    }
    // The loss draw is consumed only for messages that reach an "up"
    // wide area, so the loss stream is independent of outage phasing.
    if (imp.lossRate > 0 && lossRng_.uniform() < imp.lossRate) {
        ++lossDrops_;
        return false;
    }
    return true;
}

Time
Fabric::wanLatencyAdjust()
{
    if (params_.wanJitter <= 0)
        return 0;
    double u = jitterRng_.uniform(-1.0, 1.0);
    return params_.wide.latency * params_.wanJitter * u;
}

Time
Fabric::inOrder(Rank src, Rank dst, Time arrival)
{
    Time &last = lastDelivery_.ref(src, dst);
    if (arrival < last)
        arrival = last;
    last = arrival;
    return arrival;
}

FabricStats
Fabric::stats() const
{
    const int clusters = topo_.clusterCount();
    FabricStats s;
    s.wanShape = params_.wanShape;
    s.clusters = clusters;
    s.intra = intra_;
    s.inter = inter_;
    s.interPerCluster = interPerCluster_;
    s.wanTransit = wanTransit_;
    s.wanLossDrops = lossDrops_;
    s.wanOutageDrops = outageDrops_;
    s.orderedPairs = lastDelivery_.activePairs();
    s.orderingBytes = lastDelivery_.memoryBytes();
    s.delivery = delivery_;

    s.wanLinks.reserve(wanLinks_.size());
    for (std::size_t i = 0; i < wanLinks_.size(); ++i) {
        const WanShape::LinkRole role =
            params_.wanShape.linkRole(clusters, i);
        WanLinkEntry e;
        e.a = role.a;
        e.b = role.b;
        e.kind = role.kind;
        e.stats = wanLinks_[i].stats();
        s.wanLinks.push_back(e);
    }

    s.nics.reserve(nics_.size());
    for (const Link &nic : nics_)
        s.nics.push_back(nic.stats());
    s.gatewayOut.reserve(gatewayOut_.size());
    s.gatewayIn.reserve(gatewayIn_.size());
    for (int c = 0; c < clusters; ++c) {
        s.gatewayOut.push_back(gatewayOut_[c].stats());
        s.gatewayIn.push_back(gatewayIn_[c].stats());
    }
    return s;
}

void
Fabric::resetStats()
{
    intra_ = LinkStats{};
    inter_ = LinkStats{};
    for (auto &s : interPerCluster_)
        s = LinkStats{};
    wanTransit_ = 0;
    lossDrops_ = 0;
    outageDrops_ = 0;
    delivery_ = DeliveryStats{};
    for (Link &l : nics_)
        l.resetStats();
    for (Link &l : wanLinks_)
        l.resetStats();
    for (Link &l : gatewayOut_)
        l.resetStats();
    for (Link &l : gatewayIn_)
        l.resetStats();
    if (auto *t = sim_.trace())
        t->onMeasurementStart(sim_.now());
}

} // namespace tli::net
