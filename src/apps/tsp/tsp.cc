#include "apps/tsp/tsp.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "apps/common.h"
#include "core/work_queue.h"
#include "sim/random.h"

namespace tli::apps::tsp {

namespace {

constexpr int queueTag = 5300; // +1 steal, +2 fill (distributed)

/** Per-city minimum outgoing edge, for the lower bound. */
std::vector<int>
minEdges(const DistanceMatrix &dist)
{
    const int n = static_cast<int>(dist.size());
    std::vector<int> m(n, std::numeric_limits<int>::max());
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i != j)
                m[i] = std::min(m[i], dist[i][j]);
        }
    }
    return m;
}

/**
 * Depth-first branch and bound below a partial tour. The lower bound
 * of a node is the partial length plus each unvisited city's cheapest
 * outgoing edge; that sum is kept incrementally, and the visited set
 * is a bitmask.
 */
struct Searcher
{
    const DistanceMatrix &dist;
    const std::vector<int> &min_edge;
    int n;
    int cutoff;       // fixed: never tightened
    /** Prune against the best tour so far instead of the cutoff. */
    bool improving;
    int best;
    std::uint64_t nodes = 0;
    /** Bit c is set while city c is on the path. */
    std::uint64_t visited = 0;
    /** Sum of min_edge over the cities not on the path. */
    int unvisitedMinEdges = 0;
    Tour path;
    int length = 0;

    Searcher(const DistanceMatrix &d, const std::vector<int> &me,
             int cut, bool improve = false)
        : dist(d), min_edge(me), n(static_cast<int>(d.size())),
          cutoff(cut), improving(improve),
          best(std::numeric_limits<int>::max())
    {
        TLI_ASSERT(n <= 64, "the visited mask holds at most 64 cities, not ",
                   n);
        for (int c = 0; c < n; ++c)
            unvisitedMinEdges += min_edge[c];
        path.reserve(n);
    }

    void
    visit(int c)
    {
        visited |= std::uint64_t{1} << c;
        unvisitedMinEdges -= min_edge[c];
        path.push_back(c);
    }

    void
    unvisit(int c)
    {
        path.pop_back();
        unvisitedMinEdges += min_edge[c];
        visited &= ~(std::uint64_t{1} << c);
    }

    /** Walk @p job's cities onto the path (each city once). */
    void
    start(const Tour &job)
    {
        for (std::size_t i = 0; i < job.size(); ++i) {
            if (i > 0)
                length += dist[job[i - 1]][job[i]];
            if (!(visited & (std::uint64_t{1} << job[i])))
                visit(job[i]);
            else
                path.push_back(job[i]);
        }
    }

    void
    dfs()
    {
        ++nodes;
        if (static_cast<int>(path.size()) == n) {
            int total = length + dist[path.back()][0];
            best = std::min(best, total);
            return;
        }
        const int bound = length + unvisitedMinEdges;
        if (bound >= (improving ? best : cutoff + min_edge[0]))
            return;
        const int at = path.back();
        const std::vector<int> &from = dist[at];
        for (int c = 1; c < n; ++c) {
            if (visited & (std::uint64_t{1} << c))
                continue;
            visit(c);
            length += from[c];
            dfs();
            length -= from[c];
            unvisit(c);
        }
    }
};

struct Run
{
    Machine &machine;
    Config cfg;
    bool optimized;
    const DistanceMatrix &dist;
    int cutoff;
    /** The memoized job list; the queue fill copies it once. */
    const std::vector<Tour> &jobs;
    double costPerNode;

    core::CentralWorkQueue<Tour> central;
    core::DistributedWorkQueue<Tour> distributed;

    int bestFound = std::numeric_limits<int>::max();
    std::uint64_t nodesTotal = 0;

    Run(Machine &m, const Config &c, bool opt, const DistanceMatrix &d,
        const std::vector<Tour> &j)
        : machine(m), cfg(c), optimized(opt), dist(d), cutoff(0),
          jobs(j), costPerNode(0),
          central(m.panda(), queueTag, 0, 32),
          distributed(m.panda(), queueTag, 32)
    {
    }
};

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    Cpu cpu(run.costPerNode);

    if (self == 0) {
        // Startup: distribute the job queue (excluded from the
        // measured phase, like the paper's startup).
        if (run.optimized)
            co_await run.distributed.fillFrom(0, run.jobs);
        else
            run.central.fill(run.jobs);
    }
    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    int best = std::numeric_limits<int>::max();
    std::uint64_t nodes = 0;
    for (;;) {
        std::optional<Tour> job;
        {
            sim::PhaseScope span = m.phase(self, "job-get");
            if (run.optimized)
                job = co_await run.distributed.get(self);
            else
                job = co_await run.central.get(self);
        }
        if (!job)
            break;
        SearchResult r = searchJob(run.dist, *job, run.cutoff);
        best = std::min(best, r.bestLength);
        nodes += r.nodesVisited;
        co_await m.compute(self, cpu,
                           static_cast<double>(r.nodesVisited));
    }

    co_await m.comm().barrier(self);
    if (self == 0)
        m.endMeasurement();

    magpie::Vec contrib{static_cast<double>(best),
                        static_cast<double>(nodes)};
    magpie::Vec mins = co_await m.comm().allreduce(
        self, contrib, magpie::ReduceOp::min());
    magpie::Vec sums = co_await m.comm().allreduce(
        self, std::move(contrib), magpie::ReduceOp::sum());
    if (self == 0) {
        run.bestFound = static_cast<int>(mins[0]);
        run.nodesTotal = static_cast<std::uint64_t>(sums[1]);
        if (run.optimized)
            run.distributed.shutdown(self);
        else
            run.central.shutdown(self);
    }
}

struct Reference
{
    DistanceMatrix dist;
    int optimal = 0;
    std::vector<Tour> jobs;
    SearchResult result;
};

const Reference &
reference(const Config &cfg)
{
    static Memo<std::tuple<int, int, std::uint64_t>, Reference> memo;
    return memo.get({cfg.cities, cfg.jobDepth, cfg.seed}, [&] {
        Reference ref;
        ref.dist = makeCities(cfg.cities, cfg.seed);
        ref.optimal = optimalTourLength(ref.dist);
        ref.jobs = makeJobs(ref.dist, cfg.jobDepth);
        ref.result = searchAll(ref.dist, ref.jobs, ref.optimal);
        return ref;
    });
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    if (scenario.problemScale > 2.0)
        cfg.cities = 14;
    else if (scenario.problemScale < 0.5)
        cfg.cities = 11;
    cfg.seed = scenario.seed;
    return cfg;
}

DistanceMatrix
makeCities(int n, std::uint64_t seed)
{
    sim::Random rng(seed);
    DistanceMatrix d(n, std::vector<int>(n, 0));
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            int w = static_cast<int>(rng.uniformInt(1, 100));
            d[i][j] = w;
            d[j][i] = w;
        }
    }
    return d;
}

int
optimalTourLength(const DistanceMatrix &dist)
{
    // Classic improving-bound branch and bound (internal only; the
    // benchmark itself uses the fixed cutoff this computes).
    const std::vector<int> me = minEdges(dist);
    Searcher s(dist, me, 0, true);
    s.start(Tour{0});
    s.dfs();
    return s.best;
}

std::vector<Tour>
makeJobs(const DistanceMatrix &dist, int depth)
{
    const int n = static_cast<int>(dist.size());
    std::vector<Tour> jobs;
    Tour prefix{0};
    std::vector<bool> used(n, false);
    used[0] = true;

    auto gen = [&](auto &&self_fn) -> void {
        if (static_cast<int>(prefix.size()) == depth) {
            jobs.push_back(prefix);
            return;
        }
        for (int c = 1; c < n; ++c) {
            if (used[c])
                continue;
            used[c] = true;
            prefix.push_back(c);
            self_fn(self_fn);
            prefix.pop_back();
            used[c] = false;
        }
    };
    gen(gen);
    return jobs;
}

SearchResult
searchJob(const DistanceMatrix &dist, const Tour &job, int cutoff)
{
    // Recomputing the per-city minimum edges is O(n^2) and negligible
    // next to the search below one job; never cache it by address.
    const std::vector<int> me = minEdges(dist);
    Searcher s(dist, me, cutoff);
    s.start(job);
    s.dfs();
    SearchResult out;
    out.bestLength = s.best;
    out.nodesVisited = s.nodes;
    return out;
}

SearchResult
searchAll(const DistanceMatrix &dist, const std::vector<Tour> &jobs,
          int cutoff)
{
    SearchResult total;
    total.bestLength = std::numeric_limits<int>::max();
    for (const Tour &job : jobs) {
        SearchResult r = searchJob(dist, job, cutoff);
        total.bestLength = std::min(total.bestLength, r.bestLength);
        total.nodesVisited += r.nodesVisited;
    }
    return total;
}

core::RunResult
run(const core::Scenario &scenario, bool optimized)
{
    Machine machine(scenario);
    Config cfg = Config::fromScenario(scenario);
    const Reference &ref = reference(cfg);

    Run state(machine, cfg, optimized, ref.dist, ref.jobs);
    state.cutoff = ref.optimal;
    state.costPerNode =
        cfg.totalSequentialSeconds /
        static_cast<double>(ref.result.nodesVisited);

    const int p = machine.size();
    if (optimized) {
        for (Rank r = 0; r < p; ++r)
            state.distributed.startServers(r);
    } else {
        state.central.start();
    }
    machine.runWorkers([&](Rank r) { return worker(state, r); });

    bool ok = state.bestFound == ref.result.bestLength &&
              state.nodesTotal == ref.result.nodesVisited;
    return machine.finishMeasurement(
        static_cast<double>(state.bestFound), ok);
}

} // namespace tli::apps::tsp
