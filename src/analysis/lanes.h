/**
 * @file
 * The predictor's time type: W affine timestamps side by side, one per
 * wide-area point a replay pass evaluates, and the LinkCost that lets
 * the WAN segments of net::Interconnect carry each lane's own
 * bandwidth, latency and slopes.
 */

#ifndef TWOLAYER_ANALYSIS_LANES_H_
#define TWOLAYER_ANALYSIS_LANES_H_

#include <cstdint>

#include "net/link.h"
#include "sim/types.h"

namespace tli::analysis {

/**
 * W timestamps, each an affine function of the wide-area knobs around
 * its lane's evaluated point: lane i's value(i), with subgradients
 * latencySlope(i) = dT/dL (L the one-way WAN latency in seconds; the
 * count of WAN latency crossings on the path to this time) and
 * bandwidthSlope(i) = dT/d(1/B) (the bytes serialized on WAN links
 * along it). Stored as a struct of arrays of lane pairs, one 16-byte
 * vector register per pair (SSE2 on x86-64), so `+` and `later` are
 * branch-free element-wise arithmetic and selects, and each lane runs
 * exactly the floating-point operations a one-point replay would.
 */
template <int W>
struct Lanes
{
    static_assert(W % 2 == 0, "lanes come in pairs");
    /** Lane pairs per component. */
    static constexpr int P = W / 2;
    /** One component of two lanes. */
    typedef double Pair __attribute__((vector_size(16)));

    Pair v[P];
    Pair dLat[P];
    Pair dInvBw[P];

    double value(int i) const { return v[i / 2][i % 2]; }
    double latencySlope(int i) const { return dLat[i / 2][i % 2]; }
    double bandwidthSlope(int i) const { return dInvBw[i / 2][i % 2]; }

    /** Every lane at @p value, with zero slopes. */
    static Lanes
    splat(Time value)
    {
        Lanes r;
        for (int k = 0; k < P; ++k) {
            r.v[k] = Pair{value, value};
            r.dLat[k] = Pair{0, 0};
            r.dInvBw[k] = Pair{0, 0};
        }
        return r;
    }

    /** Advance every lane's value by a charge @p dt that does not move
     *  with the knobs (compute, a traced gap). */
    void
    advance(Time dt)
    {
        for (int k = 0; k < P; ++k)
            v[k] += dt;
    }
};

/** Lane-wise sum: a delay of @p b after time @p a. */
template <int W>
inline Lanes<W>
operator+(const Lanes<W> &a, const Lanes<W> &b)
{
    Lanes<W> r;
    for (int k = 0; k < Lanes<W>::P; ++k) {
        r.v[k] = a.v[k] + b.v[k];
        r.dLat[k] = a.dLat[k] + b.dLat[k];
        r.dInvBw[k] = a.dInvBw[k] + b.dInvBw[k];
    }
    return r;
}

/** The later of two timestamps, lane by lane; in each lane @p a wins
 *  exact ties, so a horizon passed first keeps its slopes
 *  (net::later's rule). */
template <int W>
inline Lanes<W>
later(const Lanes<W> &a, const Lanes<W> &b)
{
    Lanes<W> r;
    for (int k = 0; k < Lanes<W>::P; ++k) {
        const auto b_later = b.v[k] > a.v[k];
        r.v[k] = b_later ? b.v[k] : a.v[k];
        r.dLat[k] = b_later ? b.dLat[k] : a.dLat[k];
        r.dInvBw[k] = b_later ? b.dInvBw[k] : a.dInvBw[k];
    }
    return r;
}

} // namespace tli::analysis

namespace tli::net {

/**
 * Link costs over lanes. A link without a Variation charges its params
 * in every lane with zero slopes. A varying link -- a WAN segment --
 * charges each lane's own segment params instead, and moves with the
 * knobs by that lane's slopes.
 */
template <int W>
struct LinkCost<analysis::Lanes<W>>
{
    using L = analysis::Lanes<W>;

    using Pair = typename L::Pair;

    /** Per-lane WAN segment params and slopes. */
    struct Variation
    {
        Pair latency[L::P];
        Pair bandwidth[L::P];
        Pair perMessageCost[L::P];
        /** d(latency)/dL: 1 per full WAN crossing, a share of it per
         *  segment of a split one (WanShape::segmentShare), 0 where
         *  the lane's WAN does not vary. */
        Pair latencySlope[L::P];
        /** 1 where the occupancy's bytes term scales with 1/B, else
         *  0. */
        Pair bandwidthSlope[L::P];

        /** Lane @p i charges @p segment, moving with L by
         *  @p latency_slope and with 1/B iff @p bandwidth_slope. */
        void
        set(int i, const LinkParams &segment, double latency_slope,
            bool bandwidth_slope)
        {
            TLI_ASSERT(segment.bandwidth > 0, "lane ", i,
                       ": bandwidth must be positive");
            TLI_ASSERT(segment.latency >= 0 &&
                           segment.perMessageCost >= 0,
                       "lane ", i, ": negative link timing");
            const int k = i / 2, j = i % 2;
            latency[k][j] = segment.latency;
            bandwidth[k][j] = segment.bandwidth;
            perMessageCost[k][j] = segment.perMessageCost;
            latencySlope[k][j] = latency_slope;
            bandwidthSlope[k][j] = bandwidth_slope ? 1 : 0;
        }
    };

    static LinkDelays<L>
    of(const LinkParams &params, std::uint64_t bytes,
       const Variation *vary)
    {
        const double b = static_cast<double>(bytes);
        if (!vary) {
            return {L::splat(params.perMessageCost + b / params.bandwidth),
                    L::splat(params.latency)};
        }
        const Pair bb = {b, b};
        LinkDelays<L> d;
        for (int k = 0; k < L::P; ++k) {
            d.occupancy.v[k] =
                vary->perMessageCost[k] + bb / vary->bandwidth[k];
            d.occupancy.dLat[k] = Pair{0, 0};
            d.occupancy.dInvBw[k] = bb * vary->bandwidthSlope[k];
            d.latency.v[k] = vary->latency[k];
            d.latency.dLat[k] = vary->latencySlope[k];
            d.latency.dInvBw[k] = Pair{0, 0};
        }
        return d;
    }

    static L fixed(Time seconds) { return L::splat(seconds); }
};

} // namespace tli::net

#endif // TWOLAYER_ANALYSIS_LANES_H_
