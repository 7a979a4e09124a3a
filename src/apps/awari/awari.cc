#include "apps/awari/awari.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/awari/game.h"
#include "apps/common.h"
#include "core/combiner.h"

namespace tli::apps::awari {

namespace {

constexpr int combinerTag = 5400; // +1 forwarder

/** One retrograde-analysis protocol item. */
struct Item
{
    enum class Kind : std::uint8_t { request, value };

    Kind kind = Kind::request;
    std::uint64_t key = 0;
    Value value = Value::unknown;
    std::int32_t from = -1;
};

using Combiner = core::MessageCombiner<Item>;

struct Run
{
    Machine &machine;
    Config cfg;
    bool optimized;
    Combiner combiner;
    double costPerUnit;

    /** Per-rank solved values of owned positions (all stages). */
    std::vector<std::unordered_map<std::uint64_t, Value>> values;
    /** Per-rank protocol counters for quiescence detection. */
    std::vector<double> itemsSent;
    std::vector<double> itemsReceived;

    std::vector<StageCounts> parallelCounts;

    Run(Machine &m, const Config &c, bool opt)
        : machine(m), cfg(c), optimized(opt),
          combiner(m.panda(), combinerTag,
                   Combiner::Config{
                       static_cast<std::size_t>(c.combineItems), 16,
                       opt}),
          costPerUnit(0), values(m.size()), itemsSent(m.size(), 0),
          itemsReceived(m.size(), 0),
          parallelCounts(c.maxStones + 1)
    {
    }
};

/** Per-rank working state of one stage. */
struct Stage
{
    int stones = 0;
    std::vector<std::uint64_t> ownKeys;
    std::unordered_map<std::uint64_t, int> index;
    std::vector<Value> val;
    std::vector<int> pending;
    /** Local states depending on a (possibly remote) successor key. */
    std::unordered_map<std::uint64_t, std::vector<int>> dependents;
    /** Remote ranks awaiting the value of an owned same-stage state. */
    std::unordered_map<std::uint64_t, std::vector<Rank>> subscribers;
    std::deque<int> cascade;
    double workUnits = 0;
};

/** Mark local state @p i determined and queue notifications. */
void
determine(Stage &st, int i, Value v)
{
    TLI_ASSERT(st.val[i] == Value::unknown, "double determination");
    st.val[i] = v;
    st.cascade.push_back(i);
}

/** Apply a known successor value to everything depending on it. */
void
applyKnownValue(Stage &st, std::uint64_t key, Value v)
{
    auto dep = st.dependents.find(key);
    if (dep == st.dependents.end())
        return;
    for (int i : dep->second) {
        if (st.val[i] != Value::unknown)
            continue;
        if (v == Value::loss)
            determine(st, i, Value::win);
        else if (v == Value::win && --st.pending[i] == 0)
            determine(st, i, Value::loss);
        // A draw successor never resolves a state.
    }
    st.dependents.erase(dep);
}

/** Drain the cascade queue: notify subscribers, propagate locally. */
void
drainCascade(Run &run, Rank self, Stage &st)
{
    while (!st.cascade.empty()) {
        int i = st.cascade.front();
        st.cascade.pop_front();
        std::uint64_t key = st.ownKeys[i];
        Value v = st.val[i];
        run.values[self][key] = v;

        auto subs = st.subscribers.find(key);
        if (subs != st.subscribers.end()) {
            for (Rank r : subs->second) {
                run.itemsSent[self] += 1;
                run.combiner.add(self, r,
                                 Item{Item::Kind::value, key, v, self});
            }
            st.subscribers.erase(subs);
        }
        applyKnownValue(st, key, v);
    }
}

/** Process one incoming protocol item. */
void
processItem(Run &run, Rank self, Stage &st, const Item &item)
{
    run.itemsReceived[self] += 1;
    if (item.kind == Item::Kind::value) {
        applyKnownValue(st, item.key, item.value);
        drainCascade(run, self, st);
        return;
    }
    // Request: lower stages are always solved; same-stage states may
    // still be undetermined, in which case the requester subscribes.
    auto solved = run.values[self].find(item.key);
    if (solved != run.values[self].end()) {
        run.itemsSent[self] += 1;
        run.combiner.add(self, item.from,
                         Item{Item::Kind::value, item.key,
                              solved->second, self});
        return;
    }
    TLI_ASSERT(st.index.count(item.key),
               "request for a state this rank does not own");
    st.subscribers[item.key].push_back(item.from);
}

/** Build the stage structures and issue the initial requests. */
void
buildStage(Run &run, Rank self, Stage &st)
{
    const int p = run.machine.size();
    std::vector<std::uint64_t> all = enumerateStage(st.stones);
    for (std::uint64_t key : all) {
        if (ownerOf(key, p) == self)
            st.ownKeys.push_back(key);
    }
    const int n = static_cast<int>(st.ownKeys.size());
    st.index.reserve(n * 2);
    for (int i = 0; i < n; ++i)
        st.index.emplace(st.ownKeys[i], i);
    st.val.assign(n, Value::unknown);
    st.pending.assign(n, 0);

    std::unordered_set<std::uint64_t> requested;
    for (int i = 0; i < n; ++i) {
        Position pos = decode(st.ownKeys[i]);
        std::vector<int> moves = legalMoves(pos);
        st.workUnits += 1 + moves.size();
        if (moves.empty()) {
            determine(st, i, Value::loss);
            continue;
        }
        bool win = false;
        int pend = 0;
        for (int m : moves) {
            int captured = 0;
            Position succ = applyMove(pos, m, &captured);
            std::uint64_t sk = encode(succ);
            Rank owner = ownerOf(sk, p);
            if (captured > 0 && owner == self) {
                Value v = run.values[self].at(sk);
                if (v == Value::loss)
                    win = true;
                else if (v != Value::win)
                    ++pend;
                continue;
            }
            // Same-stage or remote: value not yet at hand.
            ++pend;
            st.dependents[sk].push_back(i);
            if (owner != self && requested.insert(sk).second) {
                run.itemsSent[self] += 1;
                run.combiner.add(self, owner,
                                 Item{Item::Kind::request, sk,
                                      Value::unknown, self});
            }
        }
        if (win)
            determine(st, i, Value::win);
        else if (pend == 0)
            determine(st, i, Value::loss);
        else
            st.pending[i] = pend;
    }
    drainCascade(run, self, st);
}

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    Cpu cpu(run.costPerUnit);

    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    for (int k = 0; k <= run.cfg.maxStones; ++k) {
        Stage st;
        st.stones = k;
        buildStage(run, self, st);
        run.combiner.flushAll(self);
        co_await m.compute(self, cpu, st.workUnits);

        // Quiescence loop: process whatever has arrived, then check
        // global sent/received totals; two identical consecutive
        // snapshots with sent == received mean the stage is done.
        {
            sim::PhaseScope span = m.phase(self, "quiescence");
            magpie::Vec last{-1, -1};
            for (;;) {
                double work = 0;
                while (auto batch = run.combiner.tryRecvBatch(self)) {
                    for (const Item &item : *batch)
                        processItem(run, self, st, item);
                    work += run.cfg.itemHandlingUnits * batch->size();
                }
                run.combiner.flushAll(self);
                if (work > 0)
                    co_await m.compute(self, cpu, work);

                magpie::Vec contrib{run.itemsSent[self],
                                    run.itemsReceived[self]};
                magpie::Vec totals = co_await m.comm().allreduce(
                    self, std::move(contrib),
                    magpie::ReduceOp::sum());
                if (totals == last && totals[0] == totals[1])
                    break;
                last = std::move(totals);
            }
        }

        // Whatever survived the fixpoint is a draw.
        StageCounts local;
        for (std::size_t i = 0; i < st.ownKeys.size(); ++i) {
            if (st.val[i] == Value::unknown) {
                st.val[i] = Value::draw;
                run.values[self][st.ownKeys[i]] = Value::draw;
            }
            switch (st.val[i]) {
              case Value::win:
                ++local.win;
                break;
              case Value::draw:
                ++local.draw;
                break;
              case Value::loss:
                ++local.loss;
                break;
              default:
                break;
            }
        }
        magpie::Vec tallies{static_cast<double>(local.win),
                            static_cast<double>(local.draw),
                            static_cast<double>(local.loss)};
        magpie::Vec total = co_await m.comm().allreduce(
            self, std::move(tallies), magpie::ReduceOp::sum());
        if (self == 0) {
            run.parallelCounts[k].win =
                static_cast<std::int64_t>(total[0]);
            run.parallelCounts[k].draw =
                static_cast<std::int64_t>(total[1]);
            run.parallelCounts[k].loss =
                static_cast<std::int64_t>(total[2]);
        }
    }

    co_await m.comm().barrier(self);
    if (self == 0) {
        m.endMeasurement();
        run.combiner.shutdownForwarders(self);
    }
}

const Solver &
referenceSolver(int max_stones)
{
    static Memo<int, Solver> memo;
    return memo.get(max_stones, [&] {
        Solver solver(max_stones);
        solver.solve();
        return solver;
    });
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    if (scenario.problemScale >= 4.0)
        cfg.maxStones = 8;
    else if (scenario.problemScale >= 2.0)
        cfg.maxStones = 7;
    else if (scenario.problemScale < 0.5)
        cfg.maxStones = 5;
    return cfg;
}

core::RunResult
runWithCombining(const core::Scenario &scenario, int max_items,
                 bool cluster_layer)
{
    Machine machine(scenario);
    Config cfg = Config::fromScenario(scenario);
    cfg.combineItems = max_items;
    const Solver &ref = referenceSolver(cfg.maxStones);

    Run state(machine, cfg, cluster_layer);
    state.costPerUnit = cfg.totalSequentialSeconds /
                        static_cast<double>(ref.workUnits());
    const int p = machine.size();
    for (Rank r = 0; r < p; ++r)
        state.combiner.startForwarder(r);
    machine.runWorkers([&](Rank r) { return worker(state, r); });

    bool ok = state.parallelCounts.size() == ref.stageCounts().size();
    for (std::size_t k = 0; ok && k < state.parallelCounts.size(); ++k)
        ok = state.parallelCounts[k] == ref.stageCounts()[k];
    double digest = Solver::digest(state.parallelCounts);
    bool verified = ok &&
                    closeEnough(digest, Solver::digest(ref.stageCounts()));

    return machine.finishMeasurement(digest, verified);
}

core::RunResult
run(const core::Scenario &scenario, bool optimized)
{
    Config cfg = Config::fromScenario(scenario);
    return runWithCombining(scenario, cfg.combineItems, optimized);
}

} // namespace tli::apps::awari
