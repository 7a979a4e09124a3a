#include "net/wan_shape.h"

#include <charconv>
#include <sstream>

namespace tli::net {

namespace {

/**
 * Static per-dimension link labels, one literal per (dimension,
 * direction) so WanLinkEntry::kind can stay a non-owning pointer with
 * program lifetime.
 */
constexpr const char *kDimKinds[kMaxWanDims][2] = {
    {"dim0+", "dim0-"}, {"dim1+", "dim1-"}, {"dim2+", "dim2-"},
    {"dim3+", "dim3-"}, {"dim4+", "dim4-"}, {"dim5+", "dim5-"},
    {"dim6+", "dim6-"}, {"dim7+", "dim7-"},
};

std::int64_t
dimsProduct(const std::vector<int> &dims)
{
    std::int64_t product = 1;
    for (int d : dims)
        product *= d;
    return product;
}

} // namespace

const char *
wanShapeKindName(WanShape::Kind kind)
{
    switch (kind) {
      case WanShape::Kind::fullyConnected:
        return "fully-connected";
      case WanShape::Kind::star:
        return "star";
      case WanShape::Kind::ring:
        return "ring";
      case WanShape::Kind::torus:
        return "torus";
      case WanShape::Kind::mesh:
        return "mesh";
    }
    return "?";
}

const char *
WanShape::name() const
{
    return wanShapeKindName(kind_);
}

std::string
WanShape::spec() const
{
    std::string out = name();
    if (!dims_.empty())
        out += "-" + wanDimsSpec(dims_);
    return out;
}

std::string
WanShape::validateFor(int clusters) const
{
    std::ostringstream os;
    if (!dimensional()) {
        if (!dims_.empty()) {
            os << "wan-dims only apply to torus or mesh topologies, "
                  "not "
               << name();
        }
        return os.str();
    }
    if (dims_.empty()) {
        os << name()
           << " topology requires wan-dims (e.g. 4x4x2) whose "
              "product equals the cluster count";
        return os.str();
    }
    if (static_cast<int>(dims_.size()) > kMaxWanDims) {
        os << "wan-dims supports at most " << kMaxWanDims
           << " dimensions, got " << dims_.size();
        return os.str();
    }
    for (int d : dims_) {
        if (d < 2) {
            os << "wan-dims entries must be >= 2, got " << d << " in "
               << wanDimsSpec(dims_);
            return os.str();
        }
    }
    if (dimsProduct(dims_) != clusters) {
        os << "wan-dims product must equal the cluster count: "
           << wanDimsSpec(dims_) << " = " << dimsProduct(dims_)
           << ", clusters = " << clusters;
    }
    return os.str();
}

std::size_t
WanShape::linkCount(int clusters) const
{
    switch (kind_) {
      case Kind::fullyConnected:
        return static_cast<std::size_t>(clusters) * clusters;
      case Kind::star:
      case Kind::ring:
        return 2 * static_cast<std::size_t>(clusters);
      case Kind::torus:
      case Kind::mesh:
        // One +/- directed link per cluster per dimension. The mesh
        // keeps the layout and leaves its wraparound edges unused,
        // like the fully connected mesh's diagonal entries.
        return 2 * dims_.size() * static_cast<std::size_t>(clusters);
    }
    TLI_PANIC("unreachable wan shape kind");
}

LinkParams
WanShape::segmentParams(const LinkParams &wide) const
{
    LinkParams p = wide;
    p.latency *= segmentShare();
    p.perMessageCost *= segmentShare();
    return p;
}

WanShape::LinkRole
WanShape::linkRole(int clusters, std::size_t index) const
{
    TLI_ASSERT(index < linkCount(clusters),
               "wan link index out of range: ", index);
    LinkRole role;
    switch (kind_) {
      case Kind::fullyConnected:
        role.a = static_cast<ClusterId>(index) / clusters;
        role.b = static_cast<ClusterId>(index) % clusters;
        role.kind = "pair";
        return role;
      case Kind::star:
      case Kind::ring: {
        const bool second = index >= static_cast<std::size_t>(clusters);
        role.a = static_cast<ClusterId>(
            index % static_cast<std::size_t>(clusters));
        role.kind = kind_ == Kind::star ? (second ? "down" : "up")
                                        : (second ? "ccw" : "cw");
        return role;
      }
      case Kind::torus:
      case Kind::mesh: {
        const std::size_t c = static_cast<std::size_t>(clusters);
        const int k = static_cast<int>(index / (2 * c));
        TLI_ASSERT(k < kMaxWanDims, "wan dimension out of range: ", k);
        const bool negative = (index / c) % 2 == 1;
        role.a = static_cast<ClusterId>(index % c);
        role.kind = kDimKinds[k][negative ? 1 : 0];
        // The far end of the hop; a mesh edge link that would wrap
        // has none and stays unused.
        std::size_t stride = 1;
        for (int j = 0; j < k; ++j)
            stride *= static_cast<std::size_t>(dims_[j]);
        const int d = dims_[k];
        int coord = (role.a / static_cast<int>(stride)) % d;
        int next = negative ? coord - 1 : coord + 1;
        if (kind_ == Kind::mesh && (next < 0 || next >= d))
            return role;
        next = (next + d) % d;
        role.b = role.a + (next - coord) * static_cast<int>(stride);
        return role;
      }
    }
    TLI_PANIC("unreachable wan shape kind");
}

std::size_t
WanShape::firstHopIndex(int clusters, ClusterId a, ClusterId b) const
{
    std::size_t first = 0;
    bool found = false;
    forEachHop(clusters, a, b, [&](std::size_t link) {
        if (!found) {
            first = link;
            found = true;
        }
    });
    TLI_ASSERT(found, "no wan route from ", a, " to ", b);
    return first;
}

std::vector<std::size_t>
WanShape::path(int clusters, ClusterId a, ClusterId b) const
{
    std::vector<std::size_t> out;
    forEachHop(clusters, a, b,
               [&](std::size_t link) { out.push_back(link); });
    return out;
}

int
WanShape::diameter(int clusters) const
{
    switch (kind_) {
      case Kind::fullyConnected:
        return 1;
      case Kind::star:
        return 2;
      case Kind::ring:
        return clusters / 2;
      case Kind::torus:
      case Kind::mesh: {
        int sum = 0;
        for (int d : dims_)
            sum += kind_ == Kind::torus ? d / 2 : d - 1;
        return sum;
      }
    }
    TLI_PANIC("unreachable wan shape kind");
}

std::optional<WanShape>
parseWanShape(std::string_view text)
{
    if (text == "fully-connected" || text == "full")
        return WanShape::fullyConnected();
    if (text == "star")
        return WanShape::star();
    if (text == "ring")
        return WanShape::ring();
    for (WanShape::Kind kind :
         {WanShape::Kind::torus, WanShape::Kind::mesh}) {
        const std::string_view name = wanShapeKindName(kind);
        if (text == name)
            return WanShape(kind);
        if (text.size() > name.size() + 1 &&
            text.substr(0, name.size()) == name &&
            text[name.size()] == '-') {
            std::optional<std::vector<int>> dims =
                parseWanDims(text.substr(name.size() + 1));
            if (!dims)
                return std::nullopt;
            return WanShape(kind, std::move(*dims));
        }
    }
    return std::nullopt;
}

std::optional<std::vector<int>>
parseWanDims(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::vector<int> dims;
    const char *p = text.data();
    const char *end = text.data() + text.size();
    while (p < end) {
        int value = 0;
        auto [next, ec] = std::from_chars(p, end, value);
        if (ec != std::errc{} || next == p || value <= 0)
            return std::nullopt;
        dims.push_back(value);
        p = next;
        if (p == end)
            break;
        if (*p != 'x')
            return std::nullopt;
        ++p;
        if (p == end) // trailing 'x'
            return std::nullopt;
    }
    return dims;
}

std::string
wanDimsSpec(const std::vector<int> &dims)
{
    std::string out;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i)
            out += "x";
        out += std::to_string(dims[i]);
    }
    return out;
}

const char *
canonicalWanLinkKind(std::string_view name)
{
    for (const char *k : {"pair", "up", "down", "cw", "ccw"}) {
        if (name == k)
            return k;
    }
    for (const auto &pair : kDimKinds) {
        for (const char *k : pair) {
            if (name == k)
                return k;
        }
    }
    return "";
}

} // namespace tli::net
