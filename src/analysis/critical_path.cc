#include "analysis/critical_path.h"

#include <algorithm>
#include <cmath>

#include "analysis/lanes.h"
#include "net/fabric.h"
#include "sim/logging.h"

namespace tli::analysis {

std::vector<Prediction>
Predictor::predict(const std::vector<WanPoint> &points) const
{
    // Wide-area points share the traced machine's gateways and WAN
    // shape, all-Myrinet points share theirs: a pass takes one kind.
    std::vector<std::size_t> wide, myrinet;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const WanPoint &p = points[i];
        if (p.allMyrinet) {
            myrinet.push_back(i);
            continue;
        }
        TLI_ASSERT(std::isfinite(p.bandwidthMBs) && p.bandwidthMBs > 0,
                   "prediction bandwidth must be finite and > 0, got ",
                   p.bandwidthMBs);
        TLI_ASSERT(std::isfinite(p.latencyMs) && p.latencyMs >= 0,
                   "prediction latency must be finite and >= 0, got ",
                   p.latencyMs);
        wide.push_back(i);
    }
    std::vector<Prediction> out(points.size());
    for (const std::vector<std::size_t> *group : {&wide, &myrinet}) {
        for (std::size_t b = 0; b < group->size(); b += kLanes) {
            const std::size_t n =
                std::min<std::size_t>(kLanes, group->size() - b);
            if (n <= kTailLanes)
                replay<kTailLanes>(points, group->data() + b, n, out);
            else
                replay<kLanes>(points, group->data() + b, n, out);
        }
    }
    return out;
}

template <int W>
void
Predictor::replay(const std::vector<WanPoint> &points,
                  const std::size_t *index, std::size_t n,
                  std::vector<Prediction> &out) const
{
    using L = Lanes<W>;
    const TraceGraph &g = *graph_;

    // Lanes past n repeat the first point; their results are dropped.
    net::FabricParams params[W];
    for (int i = 0; i < W; ++i) {
        const WanPoint &p =
            points[index[static_cast<std::size_t>(i) < n ? i : 0]];
        core::Scenario s = g.scenario;
        if (p.allMyrinet) {
            s = s.asAllMyrinet();
        } else {
            s.allMyrinet = false;
            s.wanBandwidthMBs = p.bandwidthMBs;
            s.wanLatencyMs = p.latencyMs;
        }
        params[i] = s.fabricParams();
    }
    const net::WanShape &shape = params[0].wanShape;
    const bool varies = !points[index[0]].allMyrinet;
    typename net::LinkCost<L>::Variation wan;
    for (int i = 0; i < W; ++i) {
        wan.set(i, shape.segmentParams(params[i].wide),
                varies ? shape.segmentShare() : 0, varies);
    }

    // The replay clock is relative to measurement start, and real
    // links start idle at simulation start — so the links' initial
    // horizon sits at -measurementStart, not 0; a horizon of 0 would
    // make warmup sends queue behind a link that was free.
    const L origin = L::splat(-g.measurementStart);
    net::Interconnect<L> net(g.ranks, g.scenario.clusters, params[0],
                             origin, wan);

    std::vector<L> clock(g.ranks, L::splat(0));
    // Max arrival over everything delivered to the rank so far: the
    // horizon a genuinely blocking wait resumes at.
    std::vector<L> pending(g.ranks, L::splat(0));
    std::vector<L> arrival(g.arrivalSlots);
    // Last delivery per numbered (src, dst) pair; a pair that never
    // spoke reads as the links' idle horizon, as in the fabric.
    std::vector<L> order(g.orderingPairs, origin);

    // One message through the fabric's link chain, starting its NIC
    // transmission at @p t. The replay admits every message:
    // TraceGraph::validityError rejects impaired scenarios.
    auto route = [&](const TraceGraph::Message &m, const L &t) -> L {
        if (m.loopback)
            return net.loopback(t);
        if (!m.inter)
            return net.intraCluster(m.src, t, m.bytes);
        typename net::Interconnect<L>::Crossing c;
        net.interCluster(m.src, m.srcCluster, m.dstCluster, t, m.bytes,
                         c, [](L &) { return true; });
        const std::uint32_t *pairs = &g.pairIds[m.pairs];
        auto last = [&](std::size_t i) -> L & {
            return order[pairs[i]];
        };
        return net::Interconnect<L>::clampInOrder(m.dsts.size(),
                                                  c.arrival, last);
    };

    // Prime the links with the warmup traffic: the fabric resets its
    // counters at measurement start, not its link horizons, so setup
    // traffic still in flight delays the first measured arrivals.
    // Warmup sends are replayed at their (negative) traced times;
    // their occupancy stretches with the wide-area parameters like
    // any other transfer's.
    for (const TraceGraph::Message &m : g.warmup)
        route(m, L::splat(m.enqueue));

    for (const TraceGraph::Event &e : g.events) {
        L &t = clock[e.rank];
        t.advance(e.gap);
        if (!e.send) {
            const L &a = arrival[e.slot];
            pending[e.rank] = later(pending[e.rank], a);
            // Only a baseline-observed wait lets arrivals gate the
            // rank; a delivery that arrived under compute is overlap
            // and must not serialize the timeline. A blocked delivery
            // gates on its own message's arrival — the arrival that
            // resumed the waiting coroutine — not on the rank-wide
            // horizon: ranks hosting several coroutines (a worker
            // plus a forwarder) would otherwise inherit false
            // cross-coroutine dependencies.
            if (e.blocked)
                t = later(t, a);
            continue;
        }
        if (e.blocked)
            t = later(t, pending[e.rank]);
        arrival[e.slot] = route(g.messages[e.msg], t);
    }

    L end = L::splat(0);
    for (Rank r = 0; r < g.ranks; ++r) {
        L t = clock[r];
        t.advance(g.tails[r]);
        end = later(end, t);
    }

    for (std::size_t i = 0; i < n; ++i) {
        const net::LinkParams &w = params[i].wide;
        Prediction &p = out[index[i]];
        const int lane = static_cast<int>(i);
        p.runTimeS = end.value(lane);
        p.dLat = end.latencySlope(lane);
        p.dInvBw = end.bandwidthSlope(lane);
        p.wanLatencyS = p.dLat * w.latency;
        p.wanBandwidthS = p.dInvBw / w.bandwidth;
    }
}

} // namespace tli::analysis
