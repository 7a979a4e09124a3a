#include "apps/barnes/barnes.h"

#include <map>
#include <tuple>
#include <utility>

#include "apps/common.h"
#include "apps/partition.h"

namespace tli::apps::barnes {

namespace {

constexpr int letTag = 5500;
constexpr int letFwdTag = 5501;

/** One iteration-stamped LET transfer. */
struct LetMsg
{
    Rank src = invalidNode;
    int iter = -1;
    std::vector<Element> elements;
};

/** A cluster-combined bundle: (final destination, message) pairs. */
using LetBundle = std::vector<std::pair<Rank, LetMsg>>;

std::uint64_t
elementsWireSize(const std::vector<Element> &els, double wire_scale)
{
    return static_cast<std::uint64_t>((32 * els.size() + 16) *
                                      wire_scale);
}

/** Morton-sorted block partition of the body set. */
std::vector<std::vector<Body>>
partitionBodies(const std::vector<Body> &all, int p)
{
    std::vector<int> order = mortonOrder(all);
    const int n = static_cast<int>(all.size());
    std::vector<std::vector<Body>> blocks(p);
    for (Rank r = 0; r < p; ++r) {
        for (int i = blockLo(r, n, p); i < blockHi(r, n, p); ++i)
            blocks[r].push_back(all[order[i]]);
    }
    return blocks;
}

void
integrateBlock(std::vector<Body> &bodies,
               const std::vector<Vec3> &acc, double dt)
{
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        bodies[i].vel.x += acc[i].x * dt;
        bodies[i].vel.y += acc[i].y * dt;
        bodies[i].vel.z += acc[i].z * dt;
        bodies[i].pos.x += bodies[i].vel.x * dt;
        bodies[i].pos.y += bodies[i].vel.y * dt;
        bodies[i].pos.z += bodies[i].vel.z * dt;
    }
}

struct Run
{
    Machine &machine;
    Config cfg;
    bool optimized;

    std::vector<std::vector<Body>> owned;
    /** Per-rank early-arrival buffers keyed by iteration. */
    std::vector<std::map<int, std::vector<LetMsg>>> early;

    double expectedChecksum = 0;
    double checksumAccum = 0;

    Run(Machine &m, const Config &c, bool opt)
        : machine(m), cfg(c), optimized(opt), owned(m.size()),
          early(m.size())
    {
    }
};

/** Designated dispatcher of cluster @p c (the "gateway" process). */
Rank
dispatcherOf(const net::Topology &topo, ClusterId c)
{
    return topo.firstRankIn(c);
}

/** Forwarder process: unpacks cluster bundles at the receiving side. */
sim::Task<void>
forwarder(Run &run, Rank self)
{
    auto &panda = run.machine.panda();
    for (;;) {
        panda::Message m = co_await panda.recv(self, letFwdTag);
        LetBundle bundle = m.take<LetBundle>();
        if (bundle.empty())
            co_return;
        for (auto &[dst, msg] : bundle) {
            const std::uint64_t bytes =
                elementsWireSize(msg.elements, run.cfg.wireScale());
            panda.send(self, dst, letTag, bytes, std::move(msg));
        }
    }
}

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    auto &panda = m.panda();
    const auto &topo = m.topo();
    const int p = m.size();
    std::vector<Body> &own = run.owned[self];
    Cpu cpu(run.cfg.costPerInteraction());

    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    for (int iter = 0; iter < run.cfg.iterations; ++iter) {
        // Superstep part 1: exchange bounding boxes (small collective).
        Box mine = boundsOf(own);
        magpie::Vec boxed{mine.lo.x, mine.lo.y, mine.lo.z,
                          mine.hi.x, mine.hi.y, mine.hi.z};
        magpie::Table boxes =
            co_await m.comm().allgather(self, std::move(boxed));

        // Build the local octree and precompute every peer's
        // locally-essential elements (Blackston & Suel).
        Octree tree(own);
        if (run.optimized) {
            // One combined message per destination cluster, unpacked
            // by the designated processor on the receiving side.
            for (ClusterId c = 0; c < topo.clusterCount(); ++c) {
                LetBundle bundle;
                std::uint64_t bytes = 0;
                for (Rank j : topo.ranksInCluster(c)) {
                    if (j == self)
                        continue;
                    Box jbox{{boxes[j][0], boxes[j][1], boxes[j][2]},
                             {boxes[j][3], boxes[j][4], boxes[j][5]}};
                    LetMsg msg{self, iter,
                               tree.essentialFor(jbox, run.cfg.theta)};
                    bytes += elementsWireSize(msg.elements,
                                              run.cfg.wireScale()) + 8;
                    bundle.emplace_back(j, std::move(msg));
                }
                if (bundle.empty())
                    continue;
                if (c == topo.clusterOf(self)) {
                    // Local recipients get direct messages.
                    for (auto &[dst, msg] : bundle) {
                        const std::uint64_t msg_bytes =
                            elementsWireSize(msg.elements,
                                             run.cfg.wireScale());
                        panda.send(self, dst, letTag, msg_bytes,
                                   std::move(msg));
                    }
                } else {
                    panda.send(self, dispatcherOf(topo, c), letFwdTag,
                               bytes, std::move(bundle));
                }
            }
        } else {
            // One message per recipient (BSP per-recipient combining).
            for (Rank j = 0; j < p; ++j) {
                if (j == self)
                    continue;
                Box jbox{{boxes[j][0], boxes[j][1], boxes[j][2]},
                         {boxes[j][3], boxes[j][4], boxes[j][5]}};
                LetMsg msg{self, iter,
                           tree.essentialFor(jbox, run.cfg.theta)};
                const std::uint64_t bytes = elementsWireSize(
                    msg.elements, run.cfg.wireScale());
                panda.send(self, j, letTag, bytes, std::move(msg));
            }
        }

        // Superstep part 2: collect the p-1 essential-element
        // messages for this iteration (iteration stamps stand in for
        // the strict barrier in the optimized version).
        std::vector<std::vector<Element>> remote(p);
        {
            sim::PhaseScope span = m.phase(self, "let-collect");
            int pending = p - 1;
            auto &buffered = run.early[self][iter];
            for (LetMsg &msg : buffered) {
                remote[msg.src] = std::move(msg.elements);
                --pending;
            }
            run.early[self].erase(iter);
            while (pending > 0) {
                panda::Message raw =
                    co_await panda.recv(self, letTag);
                LetMsg msg = raw.take<LetMsg>();
                if (msg.iter != iter) {
                    run.early[self][msg.iter].push_back(
                        std::move(msg));
                    continue;
                }
                remote[msg.src] = std::move(msg.elements);
                --pending;
            }
            if (!run.optimized) {
                // Strict BSP barrier closing the superstep.
                co_await m.comm().barrier(self);
            }
        }

        // Superstep part 3: stall-free force computation.
        std::uint64_t interactions = 0;
        std::vector<Vec3> acc = computeAccelerations(
            own, tree, remote, run.cfg.theta, run.cfg.softening,
            &interactions);
        co_await m.compute(self, cpu,
                           static_cast<double>(interactions));
        integrateBlock(own, acc, run.cfg.dt);
    }

    co_await m.comm().barrier(self);
    if (self == 0)
        m.endMeasurement();

    magpie::Vec contrib{checksum(own)};
    magpie::Vec total = co_await m.comm().reduce(
        self, 0, std::move(contrib), magpie::ReduceOp::sum());
    if (self == 0) {
        run.checksumAccum = total[0];
        if (run.optimized) {
            for (ClusterId c = 0; c < topo.clusterCount(); ++c)
                panda.send(self, dispatcherOf(topo, c), letFwdTag, 0,
                           LetBundle{});
        }
    }
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    cfg.n = std::max(
        256, static_cast<int>(2048 * scenario.problemScale));
    cfg.seed = scenario.seed;
    return cfg;
}

std::vector<Vec3>
computeAccelerations(const std::vector<Body> &own,
                     const Octree &own_tree,
                     const std::vector<std::vector<Element>> &remote,
                     double theta, double softening,
                     std::uint64_t *interactions)
{
    // Assemble the received elements into a second tree (the remote
    // half of the locally essential tree) in source-rank order, so
    // results are independent of message arrival order.
    std::vector<Body> pseudo;
    for (const auto &els : remote) {
        for (const Element &e : els)
            pseudo.push_back(Body{e.pos, {}, e.mass});
    }

    std::vector<Vec3> acc(own.size());
    if (pseudo.empty()) {
        for (std::size_t i = 0; i < own.size(); ++i)
            acc[i] = own_tree.accelerationOn(own[i].pos, theta,
                                             softening, interactions);
        return acc;
    }
    Octree remote_tree(pseudo);
    for (std::size_t i = 0; i < own.size(); ++i) {
        acc[i] = own_tree.accelerationOn(own[i].pos, theta, softening,
                                         interactions);
        acc[i] += remote_tree.accelerationOn(own[i].pos, theta,
                                             softening, interactions);
    }
    return acc;
}

double
checksum(const std::vector<Body> &bodies)
{
    double sum = 0;
    for (const Body &b : bodies)
        sum += b.pos.x + b.pos.y + b.pos.z;
    return sum;
}

double
referenceChecksum(const Config &cfg, int ranks)
{
    static Memo<std::tuple<int, int, std::uint64_t, int>, double> memo;
    return memo.get({cfg.n, cfg.iterations, cfg.seed, ranks}, [&] {
        // The identical partitioned algorithm, executed serially.
        auto blocks =
            partitionBodies(makeBodies(cfg.n, cfg.seed), ranks);
        for (int iter = 0; iter < cfg.iterations; ++iter) {
            std::vector<Box> boxes(ranks);
            std::vector<Octree> trees;
            trees.reserve(ranks);
            for (int r = 0; r < ranks; ++r) {
                boxes[r] = boundsOf(blocks[r]);
                trees.emplace_back(blocks[r]);
            }
            std::vector<std::vector<Vec3>> acc(ranks);
            for (int r = 0; r < ranks; ++r) {
                std::vector<std::vector<Element>> remote(ranks);
                for (int s = 0; s < ranks; ++s) {
                    if (s != r)
                        remote[s] =
                            trees[s].essentialFor(boxes[r], cfg.theta);
                }
                acc[r] = computeAccelerations(blocks[r], trees[r],
                                              remote, cfg.theta,
                                              cfg.softening, nullptr);
            }
            for (int r = 0; r < ranks; ++r)
                integrateBlock(blocks[r], acc[r], cfg.dt);
        }
        double sum = 0;
        for (const auto &b : blocks)
            sum += checksum(b);
        return sum;
    });
}

core::RunResult
run(const core::Scenario &scenario, bool optimized)
{
    Machine machine(scenario);
    Config cfg = Config::fromScenario(scenario);
    Run state(machine, cfg, optimized);

    const int p = machine.size();
    state.owned = partitionBodies(makeBodies(cfg.n, cfg.seed), p);
    state.expectedChecksum = referenceChecksum(cfg, p);

    if (optimized) {
        for (ClusterId c = 0; c < machine.topo().clusterCount(); ++c) {
            machine.sim().spawn(forwarder(
                state, dispatcherOf(machine.topo(), c)));
        }
    }
    machine.runWorkers([&](Rank r) { return worker(state, r); });

    bool ok = closeEnough(state.checksumAccum, state.expectedChecksum,
                          1e-9);
    return machine.finishMeasurement(state.checksumAccum, ok);
}

} // namespace tli::apps::barnes
