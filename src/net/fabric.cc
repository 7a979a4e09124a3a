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
      lossRng_(params.impairments.lossSeed),
      net_(topo.totalRanks(), topo.clusterCount(), params)
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
    interPerCluster_.resize(topo_.clusterCount());
}

void
Fabric::send(Rank src, Rank dst, std::uint64_t bytes,
             sim::EventFn deliver)
{
    const Time now = sim_.now();
    const ClusterId sc = topo_.clusterOf(src);
    const ClusterId dc = topo_.clusterOf(dst);

    Crossing c;
    bool delivered = true;
    if (sc == dc) {
        const Time arrival = src == dst
                                 ? net_.loopback(now)
                                 : net_.intraCluster(src, now, bytes);
        c = {arrival, arrival, arrival, arrival};
        intra_.messages += 1;
        intra_.bytes += bytes;
    } else {
        delivered = crossClusters(src, sc, dc, now, bytes, c);
        if (delivered)
            c.arrival = net_.inOrder(src, dst, c.arrival);
    }
    if (auto *t = sim_.trace()) {
        t->onMessage({traceSeq_++, src, dst, 1, bytes, sc != dc,
                      !delivered, sc, dc, now, c.atGateway, c.gatewayDone,
                      c.atRemoteGateway, c.arrival});
    }
    if (delivered)
        sim_.scheduleAt(c.arrival, std::move(deliver));
}

void
Fabric::multicastLocal(Rank src, const std::vector<Rank> &dsts,
                       std::uint64_t bytes,
                       std::function<void(Rank)> deliver)
{
    if (dsts.empty())
        return;
    const Time now = sim_.now();
    Time arrival = net_.intraCluster(src, now, bytes);
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

    // The bundle crosses the wide area as one transfer: one loss draw
    // (or outage window) claims the whole fan-out, one inbound pass
    // reaches every member, and all share one jitter draw and one
    // delivery time.
    Crossing c;
    const bool delivered = crossClusters(src, sc, dc, now, bytes, c);
    if (delivered)
        c.arrival = net_.inOrder(src, dsts, c.arrival);
    if (auto *t = sim_.trace()) {
        sim::MessageTrace m{traceSeq_++, src, dsts.front(),
                            static_cast<int>(dsts.size()), bytes,
                            true, !delivered, sc, dc, now, c.atGateway,
                            c.gatewayDone, c.atRemoteGateway, c.arrival};
        m.fanoutDsts = dsts.data();
        t->onMessage(m);
    }
    if (!delivered)
        return;

    auto handler =
        std::make_shared<std::function<void(Rank)>>(std::move(deliver));
    for (Rank d : dsts) {
        TLI_ASSERT(topo_.clusterOf(d) == dc,
                   "multicast destination outside target cluster");
        sim_.scheduleAt(c.arrival, [handler, d] { (*handler)(d); });
    }
}

bool
Fabric::crossClusters(Rank src, ClusterId sc, ClusterId dc, Time now,
                      std::uint64_t bytes, Crossing &c)
{
    if (!net_.interCluster(src, sc, dc, now, bytes, c,
                           [this](Time &at) { return admitWan(at); })) {
        intra_.messages += 1; // the hop to the source gateway
        intra_.bytes += bytes;
        return false;
    }
    c.arrival += wanLatencyAdjust();

    intra_.messages += 2; // gateway hops on both sides
    intra_.bytes += 2 * bytes;
    inter_.messages += 1;
    inter_.bytes += bytes;
    wanTransit_ += c.atRemoteGateway - c.gatewayDone;
    LinkStats &per = interPerCluster_[sc];
    per.messages += 1;
    per.bytes += bytes;
    return true;
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
    s.orderedPairs = net_.ordering().activePairs();
    s.orderingBytes = net_.ordering().memoryBytes();
    s.delivery = delivery_;

    const Interconnect<Time>::Links &links = net_.links();
    s.wanLinks.reserve(links.wan.size());
    for (std::size_t i = 0; i < links.wan.size(); ++i) {
        const WanShape::LinkRole role =
            params_.wanShape.linkRole(clusters, i);
        WanLinkEntry e;
        e.a = role.a;
        e.b = role.b;
        e.kind = role.kind;
        e.stats = links.wan[i].stats();
        s.wanLinks.push_back(e);
    }

    s.nics.reserve(links.nics.size());
    for (const Link &nic : links.nics)
        s.nics.push_back(nic.stats());
    s.gatewayOut.reserve(clusters);
    s.gatewayIn.reserve(clusters);
    for (int c = 0; c < clusters; ++c) {
        s.gatewayOut.push_back(links.gatewayOut[c].stats());
        s.gatewayIn.push_back(links.gatewayIn[c].stats());
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
    net_.resetStats();
    if (auto *t = sim_.trace())
        t->onMeasurementStart(sim_.now());
}

} // namespace tli::net
