#include "apps/asp/asp.h"

#include <algorithm>
#include <map>
#include <utility>

#include "apps/common.h"
#include "apps/partition.h"
#include "panda/sequencer.h"

namespace tli::apps::asp {

namespace {

constexpr int seqTag = 5000;
constexpr int rowTag = 5010;

using magpie::Vec;

/** A sequence-stamped row broadcast. */
using StampedRow = std::pair<std::int64_t, Vec>;

/** Shared state of one parallel run (one instance per run). */
struct Run
{
    Machine &machine;
    Config cfg;
    SequencerPolicy policy;
    panda::SequencerService sequencer;

    /** Per-rank owned row blocks (ownership is enforced by use). */
    std::vector<Matrix> owned;
    /** Per-rank reorder buffers for incoming rows, keyed by row
     *  index (== sequence number). A rank that owns a block of rows
     *  never receives them, so the buffer is keyed absolutely rather
     *  than by a consecutive counter. */
    std::vector<std::map<std::int64_t, Vec>> reorder;

    double expectedChecksum = 0;
    double checksumAccum = 0;

    Run(Machine &m, const Config &c, SequencerPolicy pol)
        : machine(m), cfg(c), policy(pol),
          sequencer(m.panda(), seqTag, 0), owned(m.size()),
          reorder(m.size())
    {
    }
};

/** The sequencer host while row k is being broadcast. */
Rank
hostFor(int k, const Run &run)
{
    if (run.policy != SequencerPolicy::migrating)
        return 0;
    const auto &topo = run.machine.topo();
    Rank owner = blockOwner(k, run.cfg.n, run.machine.size());
    return topo.firstRankIn(topo.clusterOf(owner));
}

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    auto &panda = m.panda();
    const int n = run.cfg.n;
    const int p = m.size();
    const int lo = blockLo(self, n, p);
    const int hi = blockHi(self, n, p);
    Matrix &rows = run.owned[self];
    const double cost = run.cfg.costPerRelax();

    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    std::vector<Rank> everyone;
    for (Rank r = 0; r < p; ++r)
        everyone.push_back(r);

    Rank current_host = hostFor(0, run);
    for (int k = 0; k < n; ++k) {
        Vec row_k;
        if (blockOwner(k, n, p) == self) {
            std::int64_t s = k;
            if (run.policy != SequencerPolicy::none) {
                Rank host = hostFor(k, run);
                if (host != current_host) {
                    // Optimized: the first sender of a new cluster
                    // pulls the sequencer into its own cluster
                    // (paper: "the sequencer has to migrate only
                    // three times").
                    TLI_ASSERT(host == self,
                               "unexpected sequencer migration");
                    co_await run.sequencer.migrate(self, current_host,
                                                   host);
                }
                s = co_await run.sequencer.acquire(self, host);
                TLI_ASSERT(s == k, "sequence number ", s, " for row ",
                           k);
            }
            row_k = rows[k - lo];
            // Asynchronous multicast: sender does not wait.
            panda.multicast(self, everyone, rowTag,
                            run.cfg.rowWireBytes(),
                            StampedRow{s, row_k});
        } else {
            sim::PhaseScope span = m.phase(self, "row-wait");
            auto &buffer = run.reorder[self];
            auto it = buffer.find(k);
            while (it == buffer.end()) {
                panda::Message msg = co_await panda.recv(self, rowTag);
                StampedRow sr = msg.take<StampedRow>();
                TLI_ASSERT(sr.first >= k, "stale row ", sr.first);
                buffer.emplace(sr.first, std::move(sr.second));
                it = buffer.find(k);
            }
            row_k = std::move(it->second);
            buffer.erase(it);
        }
        // Everyone tracks the host schedule, but only senders use it.
        current_host = hostFor(k, run);

        // Relax every owned row against row k (the real computation).
        for (int i = lo; i < hi; ++i)
            relaxRow(rows[i - lo], row_k, k);
        co_await m.compute(self, Cpu(cost),
                           static_cast<double>(hi - lo) * n);
    }

    co_await m.comm().barrier(self);
    if (self == 0)
        m.endMeasurement();

    // Verification: reduce the checksum of owned rows.
    double local = 0;
    for (const Vec &r : rows) {
        for (double v : r)
            local += v;
    }
    Vec contrib{local};
    Vec total = co_await m.comm().reduce(self, 0, std::move(contrib),
                                         magpie::ReduceOp::sum());
    if (self == 0) {
        run.checksumAccum = total[0];
        run.sequencer.shutdown(self);
    }
}

/** Memoized checksum of the sequential reference solution, keyed by
 *  (n, seed); only the checksum is kept, not the n x n matrix. */
double
referenceChecksum(const Config &cfg)
{
    static Memo<std::pair<int, std::uint64_t>, double> memo;
    return memo.get({cfg.n, cfg.seed}, [&] {
        Matrix m = makeGraph(cfg.n, cfg.seed);
        floydWarshall(m);
        return checksum(m);
    });
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    cfg.n = std::max(
        32, static_cast<int>(320 * std::cbrt(scenario.problemScale)));
    cfg.seed = scenario.seed;
    return cfg;
}

Matrix
makeGraph(int n, std::uint64_t seed)
{
    sim::Random rng(seed);
    Matrix m(n, Vec(n));
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j)
            m[i][j] = i == j ? 0.0 : 1.0 + rng.uniformInt(0, 99);
    }
    return m;
}

void
relaxRow(std::vector<double> &row, const std::vector<double> &row_k,
         int k)
{
    const std::size_t n = row.size();
    TLI_ASSERT(row_k.size() == n && &row != &row_k,
               "relaxRow needs a distinct row of the same length");
    double *__restrict d = row.data();
    const double *__restrict rk = row_k.data();
    const double dik = d[k];
    for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + rk[j];
        d[j] = via < d[j] ? via : d[j];
    }
}

void
floydWarshall(Matrix &dist)
{
    const int n = static_cast<int>(dist.size());
    Vec rk;
    for (int k = 0; k < n; ++k) {
        // A copy, so row k relaxes against itself as the in-place
        // loop did: each d[k][j] is read before it is written.
        rk = dist[k];
        for (int i = 0; i < n; ++i)
            relaxRow(dist[i], rk, k);
    }
}

double
checksum(const Matrix &dist)
{
    double sum = 0;
    for (const Vec &row : dist) {
        for (double v : row)
            sum += v;
    }
    return sum;
}

core::RunResult
run(const core::Scenario &scenario, SequencerPolicy policy)
{
    return run(scenario, policy, Config::fromScenario(scenario));
}

core::RunResult
run(const core::Scenario &scenario, SequencerPolicy policy,
    const Config &config)
{
    Machine machine(scenario);
    Config cfg = config;
    Run state(machine, cfg, policy);

    const int p = machine.size();
    Matrix graph = makeGraph(cfg.n, cfg.seed);
    for (Rank r = 0; r < p; ++r) {
        for (int i = blockLo(r, cfg.n, p); i < blockHi(r, cfg.n, p);
             ++i) {
            state.owned[r].push_back(graph[i]);
        }
        state.sequencer.startServer(r);
    }
    state.expectedChecksum = referenceChecksum(cfg);

    machine.runWorkers([&](Rank r) { return worker(state, r); });

    bool ok = closeEnough(state.checksumAccum, state.expectedChecksum);
    return machine.finishMeasurement(state.checksumAccum, ok);
}

core::RunResult
run(const core::Scenario &scenario, bool optimized)
{
    return run(scenario, optimized ? SequencerPolicy::migrating
                                   : SequencerPolicy::fixed);
}

} // namespace tli::apps::asp
