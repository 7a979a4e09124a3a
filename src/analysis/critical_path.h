/**
 * @file
 * The critical-path engine: replays a TraceGraph's dependency DAG
 * under arbitrary wide-area parameters with link-contention fidelity,
 * carrying every timestamp as an affine function of the one-way WAN
 * latency L and the inverse WAN bandwidth 1/B. Total run time is a
 * composition of affine steps and maxima, hence piecewise-linear in L
 * and convex in 1/B — one O(events x hops) pass per evaluated point,
 * no re-simulation.
 */

#ifndef TWOLAYER_ANALYSIS_CRITICAL_PATH_H_
#define TWOLAYER_ANALYSIS_CRITICAL_PATH_H_

#include <cstdint>

#include "analysis/trace_graph.h"
#include "net/fabric.h"

namespace tli::analysis {

/**
 * A timestamp as an affine function of the wide-area knobs around the
 * evaluated point: value() = v, with subgradient dLat = dT/dL (L in
 * seconds; the count of WAN latency crossings on the path to this
 * time) and dInvBw = dT/d(1/B) (the bytes serialized on WAN links
 * along it).
 */
struct Affine
{
    double v = 0;
    double dLat = 0;
    double dInvBw = 0;
};

/** Componentwise sum: a delay of @p b after time @p a. */
inline Affine
operator+(const Affine &a, const Affine &b)
{
    return {a.v + b.v, a.dLat + b.dLat, a.dInvBw + b.dInvBw};
}

/** The later of two timestamps; @p a wins exact ties, so a horizon
 *  passed first keeps its slopes (net::later's rule). */
inline const Affine &
later(const Affine &a, const Affine &b)
{
    return b.v > a.v ? b : a;
}

/**
 * One evaluated point of the sensitivity model: the predicted run
 * time of the measured phase plus its local decomposition. The
 * critical path crosses dLat one-way WAN latencies and serializes
 * dInvBw bytes on WAN links, so around this point
 *
 *     T(L, B) ~ runTimeS + dLat * (L - L0) + dInvBw * (1/B - 1/B0).
 */
struct Prediction
{
    double runTimeS = 0;
    /** dT/dL, L the one-way WAN latency in seconds. */
    double dLat = 0;
    /** dT/d(1/B), B in bytes/s: bytes on the critical path. */
    double dInvBw = 0;
    /** Critical-path seconds spent in WAN propagation: dLat * L. */
    double wanLatencyS = 0;
    /** Critical-path seconds spent in WAN serialization: dInvBw/B. */
    double wanBandwidthS = 0;
};

/**
 * Replays one TraceGraph under different wide-area parameters on the
 * fabric's own link chain, net::Interconnect<Affine>. The graph must
 * outlive the predictor. Each predict*() call is an independent
 * replay (fresh link horizons), so calls can be made in any order.
 */
class Predictor
{
  public:
    explicit Predictor(const TraceGraph &graph) : graph_(&graph) {}

    /** Predict at one wide-area (bandwidth MByte/s, latency ms)
     *  point of the same machine. */
    Prediction predictAt(double bandwidth_mbs,
                         double latency_ms) const;

    /** Predict the all-Myrinet upper bound (every link local). */
    Prediction predictAllMyrinet() const;

    /** Predict at the traced scenario's own wide-area point; equals
     *  the traced run time up to residual startup occupancy. */
    Prediction
    tracePoint() const
    {
        return predictAt(graph_->scenario.wanBandwidthMBs,
                         graph_->scenario.wanLatencyMs);
    }

  private:
    Prediction replay(const net::FabricParams &params,
                      bool wan_variable) const;

    const TraceGraph *graph_;
};

} // namespace tli::analysis

#endif // TWOLAYER_ANALYSIS_CRITICAL_PATH_H_
