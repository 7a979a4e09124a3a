/**
 * @file
 * The wide-area network shape as a first-class value: which physical
 * links exist between the cluster gateways, how a transfer routes
 * over them, and what each link is called. Owning all of that in one
 * type (instead of enum switches scattered over routing, stats
 * labeling, flag parsing and the result cache) means a new shape is
 * one class to extend, not five switches to keep in lockstep.
 */

#ifndef TWOLAYER_NET_WAN_SHAPE_H_
#define TWOLAYER_NET_WAN_SHAPE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/link.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace tli::net {

/** Most dimensions a torus/mesh can have (labels are static). */
constexpr int kMaxWanDims = 8;

/**
 * Shape of the wide-area network connecting the cluster gateways.
 * The paper's DAS is fully connected; §5.1 predicts its
 * bisection-bandwidth effect "will diminish, and disappear in star,
 * ring, or bus topologies". The k-ary n-cube torus and mesh shapes
 * (APENet / PACS-CS-style direct networks) extend that sweep to
 * multi-dimensional diameters the paper could not measure.
 *
 * A WanShape is a plain value: a kind plus, for torus/mesh, the
 * per-dimension extents whose product must equal the cluster count.
 * It owns link enumeration (linkCount / linkRole), multi-hop path
 * computation (forEachHop / path / firstHopIndex), the canonical
 * name/parse round trip (name / spec / parseWanShape), and parameter
 * validation (validateFor) — the Fabric, stats, flags, reports and
 * result cache are shape-agnostic consumers.
 */
class WanShape
{
  public:
    enum class Kind
    {
        /** A dedicated link per ordered cluster pair (the DAS). */
        fullyConnected,
        /** One up/down link per cluster through a central switch. */
        star,
        /** Unidirectional links around a cycle; shorter arc taken. */
        ring,
        /** k-ary n-cube with wraparound; dimension-ordered routing,
         *  shorter arc per dimension. */
        torus,
        /** k-ary n-cube without wraparound; dimension-ordered,
         *  monotone per dimension. */
        mesh,
    };

    /** Fully connected — the DAS default. */
    WanShape() = default;

    /**
     * Any kind with explicit dims. Construction never fails: an
     * inconsistent combination (dims on a ring, dims whose product
     * is not the cluster count) is reported by validateFor(), so the
     * Scenario/flag layers can surface one readable message instead
     * of asserting here.
     */
    explicit WanShape(Kind kind, std::vector<int> dims = {})
        : kind_(kind), dims_(std::move(dims))
    {}

    static WanShape fullyConnected() { return WanShape(); }
    static WanShape star() { return WanShape(Kind::star); }
    static WanShape ring() { return WanShape(Kind::ring); }
    static WanShape
    torus(std::vector<int> dims)
    {
        return WanShape(Kind::torus, std::move(dims));
    }
    static WanShape
    mesh(std::vector<int> dims)
    {
        return WanShape(Kind::mesh, std::move(dims));
    }

    Kind kind() const { return kind_; }
    /** Per-dimension extents; empty unless torus/mesh. */
    const std::vector<int> &dims() const { return dims_; }
    /** Whether this kind is parameterized by dims. */
    bool
    dimensional() const
    {
        return kind_ == Kind::torus || kind_ == Kind::mesh;
    }

    /** Canonical kind name: "fully-connected", "star", "ring",
     *  "torus", "mesh". Static storage. */
    const char *name() const;

    /**
     * Canonical full spelling, including dims when present:
     * "torus-4x4x2". parseWanShape(spec()) round-trips every shape;
     * for the three dimensionless kinds spec() == name().
     */
    std::string spec() const;

    /**
     * Consistency of this shape on a machine of @p clusters clusters.
     * @return "" when valid, else one readable problem description
     *         (the spelling the flags, JSON reports and
     *         Scenario::validate share).
     */
    std::string validateFor(int clusters) const;

    /** Physical wide-area links this shape allocates. */
    std::size_t linkCount(int clusters) const;

    /**
     * Share of the wide-area link's one-way latency and per-message
     * cost each segment carries: 0.5 for the star's two access
     * segments, which split one crossing, and 1 for every other
     * shape, whose hops each carry the full store-and-forward cost.
     */
    double
    segmentShare() const
    {
        return kind_ == Kind::star ? 0.5 : 1.0;
    }

    /** Per-segment link parameters derived from the wide-area link
     *  description: latency and per-message cost scaled by
     *  segmentShare(). */
    LinkParams segmentParams(const LinkParams &wide) const;

    /** Where one link sits in the shape: endpoints and kind label. */
    struct LinkRole
    {
        /** Owning (near) cluster. */
        ClusterId a = invalidCluster;
        /** Far cluster: the pair peer (fully connected) or the
         *  neighbor a torus/mesh hop reaches; invalidCluster for the
         *  single-ended star/ring links and unused mesh edges. */
        ClusterId b = invalidCluster;
        /** Static label: "pair", "up"/"down", "cw"/"ccw", or the
         *  per-dimension "dim<k>+"/"dim<k>-". */
        const char *kind = "";
    };

    /** Role of link @p index under this shape (see the fabric's link
     *  layout contract in linkCount()/firstHopIndex()). */
    LinkRole linkRole(int clusters, std::size_t index) const;

    /**
     * Walk the links a (a -> b) transfer crosses, in route order,
     * calling `fn(linkIndex)` once per store-and-forward segment.
     * Zero-allocation; the Fabric's transmit and probe paths both
     * route through this, so they can never diverge.
     */
    template <typename Fn>
    void
    forEachHop(int clusters, ClusterId a, ClusterId b, Fn &&fn) const
    {
        checkEndpoints(clusters, a, b);
        switch (kind_) {
          case Kind::fullyConnected:
            fn(static_cast<std::size_t>(a) * clusters + b);
            return;
          case Kind::star:
            // Up through the source's access link, down through the
            // destination's.
            fn(static_cast<std::size_t>(a));
            fn(static_cast<std::size_t>(clusters) + b);
            return;
          case Kind::ring: {
            // Shorter arc, store-and-forward per hop: clockwise hop
            // links are [c], counterclockwise ones [clusters + c].
            int cw = (b - a + clusters) % clusters;
            int ccw = (a - b + clusters) % clusters;
            if (cw <= ccw) {
                for (ClusterId c = a; c != b; c = (c + 1) % clusters)
                    fn(static_cast<std::size_t>(c));
            } else {
                for (ClusterId c = a; c != b;
                     c = (c + clusters - 1) % clusters) {
                    fn(static_cast<std::size_t>(clusters) + c);
                }
            }
            return;
          }
          case Kind::torus:
          case Kind::mesh: {
            // Dimension-ordered (e-cube) routing: resolve dimension
            // 0 completely, then 1, ... Torus arcs wrap and take the
            // shorter way (ties positive, matching the ring's
            // clockwise tie-break); mesh movement is monotone.
            const int n = static_cast<int>(dims_.size());
            ClusterId cur = a;
            std::size_t stride = 1;
            for (int k = 0; k < n; ++k) {
                const int d = dims_[k];
                int ca = (cur / static_cast<int>(stride)) % d;
                int cb = (b / static_cast<int>(stride)) % d;
                int up = (cb - ca + d) % d;
                int down = (ca - cb + d) % d;
                bool positive =
                    kind_ == Kind::mesh ? cb > ca : up <= down;
                int steps = positive ? up : down;
                for (int s = 0; s < steps; ++s) {
                    fn(hopLink(clusters, k, positive, cur));
                    cur = neighbor(cur, k, stride, positive);
                }
                stride *= static_cast<std::size_t>(d);
            }
            return;
          }
        }
        TLI_PANIC("unreachable wan shape kind");
    }

    /**
     * Index of the first link a (a -> b) transfer crosses. Shared by
     * the fabric's routing and FabricStats::wanLink, so per-pair
     * stats lookup can never diverge from the links a send occupies.
     */
    std::size_t firstHopIndex(int clusters, ClusterId a,
                              ClusterId b) const;

    /** The full route as ordered link indices (test/analysis form of
     *  forEachHop). */
    std::vector<std::size_t> path(int clusters, ClusterId a,
                                  ClusterId b) const;

    /**
     * Upper bound on any route's store-and-forward hop count: 1 for
     * fully connected, 2 for star, floor(C/2) for ring, and the sum
     * of per-dimension radii for torus (floor(d/2) each) and mesh
     * (d - 1 each).
     */
    int diameter(int clusters) const;

    bool
    operator==(const WanShape &o) const
    {
        return kind_ == o.kind_ && dims_ == o.dims_;
    }
    bool operator!=(const WanShape &o) const { return !(*this == o); }

  private:
    /** Torus/mesh link layout: the dim-@p k link leaving cluster
     *  @p c in the given direction. */
    std::size_t
    hopLink(int clusters, int k, bool positive, ClusterId c) const
    {
        return (2 * static_cast<std::size_t>(k) + (positive ? 0 : 1)) *
                   static_cast<std::size_t>(clusters) +
               static_cast<std::size_t>(c);
    }

    /** The cluster one dim-@p k step from @p c (torus wraps; the
     *  mesh never asks for an out-of-range step). */
    ClusterId
    neighbor(ClusterId c, int k, std::size_t stride,
             bool positive) const
    {
        const int d = dims_[k];
        int coord = (c / static_cast<int>(stride)) % d;
        int next = positive ? coord + 1 : coord - 1;
        if (kind_ == Kind::torus)
            next = (next + d) % d;
        TLI_ASSERT(next >= 0 && next < d, "mesh step out of range");
        return c + (next - coord) * static_cast<int>(stride);
    }

    static void
    checkEndpoints(int clusters, ClusterId a, ClusterId b)
    {
        TLI_ASSERT(a >= 0 && a < clusters && b >= 0 && b < clusters,
                   "wan route cluster out of range: ", a, ", ", b);
        TLI_ASSERT(a != b, "wan route needs distinct clusters, got ",
                   a);
    }

    Kind kind_ = Kind::fullyConnected;
    std::vector<int> dims_;
};

/** Canonical name of a shape kind (same strings as WanShape::name). */
const char *wanShapeKindName(WanShape::Kind kind);

/**
 * Parse a canonical shape spelling: a kind name ("fully-connected",
 * "star", "ring", "torus", "mesh", with "full" accepted as an alias)
 * or a full spec with dims ("torus-4x4x2", "mesh-2x2"). The inverse
 * of WanShape::spec(); the one parser behind the --wan-topology flag
 * and the result cache's stored names.
 * @return std::nullopt if @p text is not a WAN shape.
 */
std::optional<WanShape> parseWanShape(std::string_view text);

/**
 * Parse a dims spelling like "4x4x2" into per-dimension extents.
 * Accepts only positive integers joined by 'x'; range/product checks
 * belong to WanShape::validateFor.
 * @return std::nullopt on malformed input.
 */
std::optional<std::vector<int>> parseWanDims(std::string_view text);

/** Canonical "4x4x2" spelling of @p dims ("" when empty). */
std::string wanDimsSpec(const std::vector<int> &dims);

/**
 * Map a stored link-kind label back to its static literal (the
 * result cache's WanLinkEntry::kind is a non-owning const char*, so
 * loaded entries must point at storage with program lifetime).
 * @return "" for labels no shape emits.
 */
const char *canonicalWanLinkKind(std::string_view name);

} // namespace tli::net

#endif // TWOLAYER_NET_WAN_SHAPE_H_
