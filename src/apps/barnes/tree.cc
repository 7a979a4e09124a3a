#include "apps/barnes/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.h"
#include "sim/random.h"

namespace tli::apps::barnes {

double
Box::distanceTo(const Vec3 &p) const
{
    auto axis = [](double v, double lo, double hi) {
        if (v < lo)
            return lo - v;
        if (v > hi)
            return v - hi;
        return 0.0;
    };
    double dx = axis(p.x, lo.x, hi.x);
    double dy = axis(p.y, lo.y, hi.y);
    double dz = axis(p.z, lo.z, hi.z);
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

void
Box::include(const Vec3 &p)
{
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
}

Box
Box::empty()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    return Box{{inf, inf, inf}, {-inf, -inf, -inf}};
}

Vec3
accelerationFrom(const Vec3 &at, const Element &src, double softening)
{
    double dx = src.pos.x - at.x;
    double dy = src.pos.y - at.y;
    double dz = src.pos.z - at.z;
    double r2 = dx * dx + dy * dy + dz * dz + softening * softening;
    double inv = 1.0 / std::sqrt(r2);
    double scale = src.mass * inv * inv * inv;
    return {scale * dx, scale * dy, scale * dz};
}

Octree::Octree(const std::vector<Body> &bodies) : bodies_(&bodies)
{
    nodes_.reserve(bodies.size() * 2 + 1);
    makeNode({0.5, 0.5, 0.5}, 0.5);
    for (int i = 0; i < static_cast<int>(bodies.size()); ++i)
        insert(0, i);
    if (!bodies.empty())
        summarize(0);
}

int
Octree::makeNode(const Vec3 &center, double half)
{
    Node n;
    n.center = center;
    n.half = half;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

void
Octree::insert(int node, int body_idx)
{
    const Vec3 &p = (*bodies_)[body_idx].pos;
    for (;;) {
        Node &n = nodes_[node];
        if (n.leaf && n.body < 0 && n.mass == 0) {
            // Empty leaf: take it.
            n.body = body_idx;
            n.mass = -1; // occupied marker until summarize()
            return;
        }
        if (n.leaf) {
            // Occupied leaf: split (re-insert the resident body).
            int resident = n.body;
            n.leaf = false;
            n.body = -1;
            n.mass = 0;
            // Guard against coincident bodies: at tiny cells, stack
            // additional bodies via first-child chaining.
            if (n.half < 1e-6) {
                // Degenerate: keep both in child 0 as a small chain.
                int child = n.children[0];
                if (child < 0) {
                    child = makeNode(n.center, n.half / 2);
                    nodes_[node].children[0] = child;
                }
                insert(child, resident);
                node = nodes_[node].children[0];
                continue;
            }
            insert(node, resident);
            continue; // then fall through to place the new body
        }
        // Internal: descend into the proper octant.
        int oct = (p.x >= n.center.x ? 1 : 0) |
                  (p.y >= n.center.y ? 2 : 0) |
                  (p.z >= n.center.z ? 4 : 0);
        int child = n.children[oct];
        if (child < 0) {
            double h = n.half / 2;
            Vec3 c{n.center.x + (oct & 1 ? h : -h),
                   n.center.y + (oct & 2 ? h : -h),
                   n.center.z + (oct & 4 ? h : -h)};
            child = makeNode(c, h);
            nodes_[node].children[oct] = child;
        }
        node = child;
    }
}

void
Octree::summarize(int node)
{
    Node &n = nodes_[node];
    if (n.leaf) {
        if (n.body >= 0) {
            const Body &b = (*bodies_)[n.body];
            n.com = b.pos;
            n.mass = b.mass;
        } else {
            n.mass = 0;
        }
        return;
    }
    Vec3 weighted{0, 0, 0};
    double mass = 0;
    for (int c : n.children) {
        if (c < 0)
            continue;
        summarize(c);
        const Node &ch = nodes_[c];
        weighted.x += ch.com.x * ch.mass;
        weighted.y += ch.com.y * ch.mass;
        weighted.z += ch.com.z * ch.mass;
        mass += ch.mass;
    }
    n.mass = mass;
    if (mass > 0)
        n.com = {weighted.x / mass, weighted.y / mass,
                 weighted.z / mass};
}

Vec3
Octree::accelerationOn(const Vec3 &at, double theta, double softening,
                       std::uint64_t *interactions) const
{
    Vec3 acc{0, 0, 0};
    // One traversal stack per thread, reused across calls: the walk
    // runs once per body and never suspends or re-enters.
    thread_local std::vector<int> stack;
    stack.assign(1, 0);
    while (!stack.empty()) {
        int ni = stack.back();
        stack.pop_back();
        const Node &n = nodes_[ni];
        if (n.mass <= 0)
            continue;
        if (n.leaf) {
            const Body &b = (*bodies_)[n.body];
            if (b.pos.x == at.x && b.pos.y == at.y && b.pos.z == at.z)
                continue; // self
            acc += accelerationFrom(at, {b.pos, b.mass}, softening);
            if (interactions)
                ++*interactions;
            continue;
        }
        double dx = n.com.x - at.x;
        double dy = n.com.y - at.y;
        double dz = n.com.z - at.z;
        double dist = std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-12;
        if (2 * n.half / dist < theta) {
            acc += accelerationFrom(at, {n.com, n.mass}, softening);
            if (interactions)
                ++*interactions;
        } else {
            for (int c : n.children) {
                if (c >= 0)
                    stack.push_back(c);
            }
        }
    }
    return acc;
}

std::vector<Element>
Octree::essentialFor(const Box &target, double theta) const
{
    std::vector<Element> out;
    if (nodes_.empty() || nodes_[0].mass <= 0)
        return out;
    std::vector<int> stack{0};
    while (!stack.empty()) {
        int ni = stack.back();
        stack.pop_back();
        const Node &n = nodes_[ni];
        if (n.mass <= 0)
            continue;
        if (n.leaf) {
            out.push_back({n.com, n.mass});
            continue;
        }
        double dist = target.distanceTo(n.com);
        if (dist > 0 && 2 * n.half / dist < theta) {
            out.push_back({n.com, n.mass});
        } else {
            for (int c : n.children) {
                if (c >= 0)
                    stack.push_back(c);
            }
        }
    }
    return out;
}

std::uint32_t
mortonCode(const Vec3 &p)
{
    auto expand = [](std::uint32_t v) {
        v &= 0x3FF;
        v = (v | (v << 16)) & 0x30000FF;
        v = (v | (v << 8)) & 0x300F00F;
        v = (v | (v << 4)) & 0x30C30C3;
        v = (v | (v << 2)) & 0x9249249;
        return v;
    };
    auto quant = [](double x) {
        double c = x < 0 ? 0 : (x >= 1 ? 0.999999 : x);
        return static_cast<std::uint32_t>(c * 1024.0);
    };
    return expand(quant(p.x)) | (expand(quant(p.y)) << 1) |
           (expand(quant(p.z)) << 2);
}

std::vector<int>
mortonOrder(const std::vector<Body> &bodies)
{
    std::vector<int> idx(bodies.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<int>(i);
    std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
        return mortonCode(bodies[a].pos) < mortonCode(bodies[b].pos);
    });
    return idx;
}

std::vector<Body>
makeBodies(int n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<Body> bodies(n);
    for (int i = 0; i < n; ++i) {
        bodies[i].pos = {rng.uniform(), rng.uniform(), rng.uniform()};
        bodies[i].vel = {0, 0, 0};
        bodies[i].mass = 1.0 / n;
    }
    return bodies;
}

Box
boundsOf(const std::vector<Body> &bodies)
{
    Box box = Box::empty();
    for (const Body &b : bodies)
        box.include(b.pos);
    return box;
}

} // namespace tli::apps::barnes
