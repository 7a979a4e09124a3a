/**
 * @file
 * The critical-path engine: replays a TraceGraph's dependency DAG
 * under arbitrary wide-area parameters with link-contention fidelity,
 * carrying every timestamp as an affine function of the one-way WAN
 * latency L and the inverse WAN bandwidth 1/B (analysis::Lanes).
 * Total run time is a composition of affine steps and maxima, hence
 * piecewise-linear in L and convex in 1/B — one O(events x hops) pass
 * per Predictor::kLanes evaluated points, no re-simulation.
 */

#ifndef TWOLAYER_ANALYSIS_CRITICAL_PATH_H_
#define TWOLAYER_ANALYSIS_CRITICAL_PATH_H_

#include <cstddef>
#include <vector>

#include "analysis/trace_graph.h"

namespace tli::analysis {

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
 * One wide-area point to predict at: a (bandwidth, latency) point of
 * the traced machine, or its all-Myrinet reference.
 */
struct WanPoint
{
    /** Wide-area bandwidth, MByte/s: finite and > 0. */
    double bandwidthMBs = 0;
    /** One-way wide-area latency, ms: finite and >= 0. */
    double latencyMs = 0;
    /** Predict the all-Myrinet upper bound instead (every link local);
     *  bandwidth and latency are ignored. */
    bool allMyrinet = false;
};

/**
 * Replays one TraceGraph under different wide-area parameters on the
 * fabric's own link chain, net::Interconnect over analysis::Lanes:
 * one walk of the event graph evaluates up to kLanes points. The
 * graph must outlive the predictor. Every pass starts from idle links,
 * and each lane runs the arithmetic of a one-point replay, so a
 * point's prediction does not depend on the batch it came in.
 */
class Predictor
{
  public:
    /**
     * Points per replay pass. Wider passes share more of the walk
     * (event decode, routing, ordering lookups) but cost more per
     * pass; 8 measured fastest on predict_dense (DESIGN.md decision
     * 14).
     */
    static constexpr int kLanes = 8;
    /** Width of a last pass with at most this many points. Single
     *  points are common: a traced point after a grid row, and
     *  every all-Myrinet reference, which takes a pass of its own.
     *  Without the narrow pass predict_dense ran about 20% slower. */
    static constexpr int kTailLanes = 2;

    explicit Predictor(const TraceGraph &graph) : graph_(&graph) {}

    /**
     * Predict every point of @p points, in order. The wide-area
     * points go through the replay kLanes at a time, and so do the
     * all-Myrinet ones, whose gateways and WAN shape differ.
     * TLI_ASSERTs that every bandwidth is > 0 and every latency
     * >= 0.
     */
    std::vector<Prediction>
    predict(const std::vector<WanPoint> &points) const;

    /** Predict at one wide-area (bandwidth MByte/s, latency ms)
     *  point of the same machine: a one-point batch. */
    Prediction
    predictAt(double bandwidth_mbs, double latency_ms) const
    {
        return predict({{bandwidth_mbs, latency_ms}}).front();
    }

    /** Predict the all-Myrinet upper bound (every link local). */
    Prediction
    predictAllMyrinet() const
    {
        return predict({allMyrinetPoint()}).front();
    }

    /** Predict at the traced scenario's own wide-area point; equals
     *  the traced run time up to residual startup occupancy. */
    Prediction
    tracePoint() const
    {
        return predict({tracedPoint()}).front();
    }

    /** The traced scenario's own wide-area point. */
    WanPoint
    tracedPoint() const
    {
        return {graph_->scenario.wanBandwidthMBs,
                graph_->scenario.wanLatencyMs};
    }

    /** The all-Myrinet reference point. */
    static WanPoint
    allMyrinetPoint()
    {
        WanPoint p;
        p.allMyrinet = true;
        return p;
    }

  private:
    /** One W-lane pass over the graph for @p n <= W points of one
     *  kind (all wide-area or all all-Myrinet), @p index[i] naming
     *  point i's slot in @p points and @p out. */
    template <int W>
    void replay(const std::vector<WanPoint> &points,
                const std::size_t *index, std::size_t n,
                std::vector<Prediction> &out) const;

    const TraceGraph *graph_;
};

} // namespace tli::analysis

#endif // TWOLAYER_ANALYSIS_CRITICAL_PATH_H_
