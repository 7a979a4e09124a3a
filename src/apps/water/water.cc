#include "apps/water/water.h"

#include <algorithm>
#include <map>
#include <utility>

#include "apps/common.h"
#include "apps/partition.h"
#include "apps/water/model.h"
#include "core/cluster_cache.h"
#include "core/two_level_reduce.h"
#include "sim/channel.h"

namespace tli::apps::water {

namespace {

constexpr int cacheTag = 5200;  // +1 for the provider side
constexpr int reduceTag = 5210; // +1 for partials
constexpr int updateTag = 5220; // unoptimized direct updates

using magpie::Vec;

/** An epoch-stamped force-update payload. */
using StampedVec = std::pair<std::int64_t, Vec>;

struct Run
{
    Machine &machine;
    Config cfg;
    bool cachedFetch;
    bool reducedUpdates;
    core::ClusterCache cache;
    core::TwoLevelReducer reducer;

    /** Per-rank molecule blocks (positions/velocities). */
    std::vector<System> owned;
    /** Per-rank buffers for early direct updates (unoptimized). */
    std::vector<std::map<std::int64_t, std::vector<Vec>>> early;

    double expectedChecksum = 0;
    double checksumAccum = 0;

    Run(Machine &m, const Config &c, bool cached, bool reduced)
        : machine(m), cfg(c), cachedFetch(cached),
          reducedUpdates(reduced),
          cache(m.panda(), cacheTag, c.wireScale()),
          reducer(m.panda(), reduceTag, magpie::ReduceOp::sum(),
                  c.wireScale()),
          owned(m.size()), early(m.size())
    {
    }
};

Vec
packPositions(const System &s)
{
    Vec out;
    out.reserve(s.pos.size() * 3);
    for (const Vec3 &p : s.pos) {
        out.push_back(p.x);
        out.push_back(p.y);
        out.push_back(p.z);
    }
    return out;
}

/** How many ranks in @p cluster send updates toward @p dst. */
int
localContributorCount(const Run &run, ClusterId cluster, Rank dst)
{
    const auto &topo = run.machine.topo();
    int count = 0;
    for (Rank j : contributorsOf(dst, run.machine.size())) {
        if (topo.clusterOf(j) == cluster)
            ++count;
    }
    return count;
}

/** How many clusters contain at least one contributor toward @p dst. */
int
contributingClusterCount(const Run &run, Rank dst)
{
    const auto &topo = run.machine.topo();
    std::vector<bool> seen(topo.clusterCount(), false);
    int count = 0;
    for (Rank j : contributorsOf(dst, run.machine.size())) {
        ClusterId c = topo.clusterOf(j);
        if (!seen[c]) {
            seen[c] = true;
            ++count;
        }
    }
    return count;
}

/** Fetch one peer's positions into a slot and signal completion. */
sim::Task<void>
fetchPositions(Run &run, Rank self, Rank peer, std::int64_t epoch,
               Vec &slot, sim::Channel<int> &done)
{
    if (run.cachedFetch)
        slot = co_await run.cache.get(self, peer, epoch);
    else
        slot = co_await run.cache.getDirect(self, peer, epoch);
    done.send(1);
}

/** Collect direct (unoptimized) updates for @p epoch. */
sim::Task<Vec>
collectDirect(Run &run, Rank self, std::int64_t epoch, int expected,
              std::size_t width)
{
    Vec total(width * 3, 0.0);
    auto &early = run.early[self];
    int got = 0;
    while (got < expected) {
        Vec update;
        auto buffered = early.find(epoch);
        if (buffered != early.end() && !buffered->second.empty()) {
            update = std::move(buffered->second.back());
            buffered->second.pop_back();
        } else {
            panda::Message m =
                co_await run.machine.panda().recv(self, updateTag);
            StampedVec sv = m.take<StampedVec>();
            if (sv.first != epoch) {
                early[sv.first].push_back(std::move(sv.second));
                continue;
            }
            update = std::move(sv.second);
        }
        for (std::size_t i = 0; i < total.size(); ++i)
            total[i] += update[i];
        ++got;
    }
    co_return total;
}

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    const int p = m.size();
    System &block = run.owned[self];
    const int nb = static_cast<int>(block.pos.size());
    const double box = block.boxSize;
    Cpu cpu(run.cfg.costPerPair());

    const std::vector<Rank> half = halfOf(self, p);
    const std::vector<Rank> contributors = contributorsOf(self, p);
    const int clusters_in = contributingClusterCount(run, self);

    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    for (int iter = 0; iter < run.cfg.iterations; ++iter) {
        // Make this epoch's positions available to the others.
        run.cache.publish(self, iter, packPositions(block));

        // All-to-half, phase 1: fetch peer positions (concurrently).
        std::vector<Vec> peer_pos(half.size());
        {
            sim::PhaseScope span = m.phase(self, "fetch");
            sim::Channel<int> done(m.sim());
            for (std::size_t i = 0; i < half.size(); ++i) {
                m.sim().spawn(fetchPositions(run, self, half[i], iter,
                                             peer_pos[i], done));
            }
            for (std::size_t i = 0; i < half.size(); ++i)
                (void)co_await done.recv();
        }

        // Force computation (the real O(n^2) work).
        std::vector<Vec3> forces(nb);
        double pairs = 0;
        for (int i = 0; i < nb; ++i) {
            for (int j = i + 1; j < nb; ++j) {
                Vec3 f = pairForce(block.pos[i], block.pos[j], box);
                forces[i] += f;
                forces[j] -= f;
            }
        }
        pairs += nb * (nb - 1) / 2.0;

        for (std::size_t h = 0; h < half.size(); ++h) {
            const Rank peer = half[h];
            const Vec &pp = peer_pos[h];
            const int np = static_cast<int>(pp.size() / 3);
            Vec update(static_cast<std::size_t>(np) * 3, 0.0);
            for (int i = 0; i < nb; ++i) {
                for (int j = 0; j < np; ++j) {
                    Vec3 pj{pp[3 * j], pp[3 * j + 1], pp[3 * j + 2]};
                    Vec3 f = pairForce(block.pos[i], pj, box);
                    forces[i] += f;
                    update[3 * j] -= f.x;
                    update[3 * j + 1] -= f.y;
                    update[3 * j + 2] -= f.z;
                }
            }
            pairs += static_cast<double>(nb) * np;

            // All-to-half, phase 2: return combined force updates.
            if (run.reducedUpdates) {
                const ClusterId mine = m.topo().clusterOf(self);
                run.reducer.contribute(
                    self, peer, iter, std::move(update),
                    localContributorCount(run, mine, peer));
            } else {
                const auto bytes = static_cast<std::uint64_t>(
                    (8 + 8 * update.size()) * run.cfg.wireScale());
                m.panda().send(self, peer, updateTag, bytes,
                               StampedVec{iter, std::move(update)});
            }
        }
        co_await m.compute(self, cpu, pairs);

        // Collect the force updates for my molecules.
        if (!contributors.empty()) {
            sim::PhaseScope span = m.phase(self, "collect");
            Vec remote;
            if (run.reducedUpdates) {
                remote = co_await run.reducer.collect(self, iter,
                                                      clusters_in);
            } else {
                remote = co_await collectDirect(
                    run, self, iter,
                    static_cast<int>(contributors.size()), nb);
            }
            for (int i = 0; i < nb; ++i) {
                forces[i] += Vec3{remote[3 * i], remote[3 * i + 1],
                                  remote[3 * i + 2]};
            }
        }

        integrate(block, forces, timeStep);
    }

    co_await m.comm().barrier(self);
    if (self == 0)
        m.endMeasurement();

    Vec contrib{checksum(block)};
    Vec total = co_await m.comm().reduce(self, 0, std::move(contrib),
                                         magpie::ReduceOp::sum());
    if (self == 0) {
        run.checksumAccum = total[0];
        run.cache.shutdown(self);
        run.reducer.shutdown(self);
    }
}

double
referenceChecksum(const Config &cfg)
{
    static Memo<std::pair<int, std::uint64_t>, double> memo;
    return memo.get({cfg.n * 1000 + cfg.iterations, cfg.seed}, [&] {
        System s = makeSystem(cfg.n, cfg.seed);
        simulateSequential(s, cfg.iterations, timeStep);
        return checksum(s);
    });
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    cfg.n = std::max(
        64, static_cast<int>(600 * std::sqrt(scenario.problemScale)));
    cfg.seed = scenario.seed;
    return cfg;
}

std::vector<Rank>
halfOf(Rank self, int p)
{
    std::vector<Rank> out;
    for (int delta = 1; delta <= p / 2; ++delta) {
        Rank j = (self + delta) % p;
        if (2 * delta == p && self > j)
            continue; // even p: the opposite rank is shared
        out.push_back(j);
    }
    return out;
}

std::vector<Rank>
contributorsOf(Rank self, int p)
{
    // j's half holds self exactly when self = j + delta (mod p) for a
    // delta in 1..p/2, minus the opposite rank that halfOf gives to the
    // lower of the two when p is even.
    std::vector<Rank> out;
    for (Rank j = 0; j < p; ++j) {
        const int delta = (self - j + p) % p;
        if (delta >= 1 && delta <= p / 2 && !(2 * delta == p && j > self))
            out.push_back(j);
    }
    return out;
}

core::RunResult
runWith(const core::Scenario &scenario, bool cached_fetch,
        bool reduced_updates)
{
    Machine machine(scenario);
    Config cfg = Config::fromScenario(scenario);
    Run state(machine, cfg, cached_fetch, reduced_updates);

    const int p = machine.size();
    System whole = makeSystem(cfg.n, cfg.seed);
    for (Rank r = 0; r < p; ++r) {
        const int lo = blockLo(r, cfg.n, p);
        const int hi = blockHi(r, cfg.n, p);
        System &s = state.owned[r];
        s.boxSize = whole.boxSize;
        s.pos.assign(whole.pos.begin() + lo, whole.pos.begin() + hi);
        s.vel.assign(whole.vel.begin() + lo, whole.vel.begin() + hi);
        state.cache.startServers(r);
        state.reducer.startServer(r);
    }
    state.expectedChecksum = referenceChecksum(cfg);

    machine.runWorkers([&](Rank r) { return worker(state, r); });

    bool ok = closeEnough(state.checksumAccum, state.expectedChecksum,
                          1e-7);
    return machine.finishMeasurement(state.checksumAccum, ok);
}

core::RunResult
run(const core::Scenario &scenario, bool optimized)
{
    return runWith(scenario, optimized, optimized);
}

} // namespace tli::apps::water
