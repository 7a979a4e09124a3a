#include "analysis/critical_path.h"

#include <vector>

namespace tli::analysis {

Prediction
Predictor::replay(const net::FabricParams &params,
                  bool wan_variable) const
{
    const TraceGraph &g = *graph_;

    // The replay clock is relative to measurement start, and real
    // links start idle at simulation start — so the links' initial
    // horizon sits at -measurementStart, not 0; a horizon of 0 would
    // make warmup sends queue behind a link that was free.
    net::Interconnect<Affine> net(g.ranks, g.scenario.clusters, params,
                                  Affine{-g.measurementStart, 0, 0},
                                  wan_variable);

    std::vector<Affine> clock(g.ranks);
    // Max arrival over everything delivered to the rank so far: the
    // horizon a genuinely blocking wait resumes at.
    std::vector<Affine> pending(g.ranks);
    std::vector<Affine> arrival(g.messages.size());

    // One message through the fabric's link chain, starting its NIC
    // transmission at @p t. The replay admits every message:
    // TraceGraph::validityError rejects impaired scenarios.
    auto route = [&](const TraceGraph::Message &m,
                     const Affine &t) -> Affine {
        if (m.loopback)
            return net.loopback(t);
        if (!m.inter)
            return net.intraCluster(m.src, t, m.bytes);
        net::Interconnect<Affine>::Crossing c;
        net.interCluster(m.src, m.srcCluster, m.dstCluster, t, m.bytes,
                         c, [](Affine &) { return true; });
        return m.dsts.size() == 1
                   ? net.inOrder(m.src, m.dsts[0], c.arrival)
                   : net.inOrder(m.src, m.dsts, c.arrival);
    };

    // Prime the links with the warmup traffic: the fabric resets its
    // counters at measurement start, not its link horizons, so setup
    // traffic still in flight delays the first measured arrivals.
    // Warmup sends are replayed at their (negative) traced times;
    // their occupancy stretches with the wide-area parameters like
    // any other transfer's.
    for (const TraceGraph::Message &m : g.warmup)
        route(m, Affine{m.enqueue, 0, 0});

    for (const TraceGraph::Event &e : g.events) {
        Affine t = clock[e.rank];
        t.v += e.gap;
        if (!e.send) {
            pending[e.rank] =
                later(pending[e.rank], arrival[e.msg]);
            // Only a baseline-observed wait lets arrivals gate the
            // rank; a delivery that arrived under compute is overlap
            // and must not serialize the timeline. A blocked delivery
            // gates on its own message's arrival — the arrival that
            // resumed the waiting coroutine — not on the rank-wide
            // horizon: ranks hosting several coroutines (a worker
            // plus a forwarder) would otherwise inherit false
            // cross-coroutine dependencies.
            if (e.blocked)
                t = later(t, arrival[e.msg]);
            clock[e.rank] = t;
            continue;
        }
        if (e.blocked)
            t = later(t, pending[e.rank]);
        clock[e.rank] = t;
        arrival[e.msg] = route(g.messages[e.msg], t);
    }

    Affine end;
    for (Rank r = 0; r < g.ranks; ++r) {
        Affine t = clock[r];
        t.v += g.tails[r];
        end = later(end, t);
    }

    Prediction p;
    p.runTimeS = end.v;
    p.dLat = end.dLat;
    p.dInvBw = end.dInvBw;
    p.wanLatencyS = end.dLat * params.wide.latency;
    p.wanBandwidthS = end.dInvBw / params.wide.bandwidth;
    return p;
}

Prediction
Predictor::predictAt(double bandwidth_mbs, double latency_ms) const
{
    core::Scenario s = graph_->scenario;
    s.allMyrinet = false;
    s.wanBandwidthMBs = bandwidth_mbs;
    s.wanLatencyMs = latency_ms;
    return replay(s.fabricParams(), /*wan_variable=*/true);
}

Prediction
Predictor::predictAllMyrinet() const
{
    core::Scenario s = graph_->scenario.asAllMyrinet();
    return replay(s.fabricParams(), /*wan_variable=*/false);
}

} // namespace tli::analysis
