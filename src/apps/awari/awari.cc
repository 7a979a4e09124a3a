#include "apps/awari/awari.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "apps/awari/game.h"
#include "apps/common.h"
#include "core/combiner.h"

namespace tli::apps::awari {

namespace {

constexpr int combinerTag = 5400; // +1 forwarder

/** Dense position id: the stage's base plus stageRank() within it. */
using PosId = std::uint32_t;

/** One retrograde-analysis protocol item. */
struct Item
{
    enum class Kind : std::uint8_t { request, value };

    Kind kind = Kind::request;
    Value value = Value::unknown;
    PosId pos = 0;
    std::int32_t from = -1;
};

using Combiner = core::MessageCombiner<Item>;

/**
 * Every position of stages 0..maxStones under one p-rank partition,
 * indexed by PosId. Read-only once built, so it is built once per
 * process for each (maxStones, p) and shared by every run (sharedTable);
 * a run's own mutable state lives in Run.
 */
struct Table
{
    struct Move
    {
        PosId succ;
        bool captured;
    };

    /** First PosId of each stage; [maxStones + 1] is the total. */
    std::vector<PosId> stageBase;
    std::vector<Rank> owner;
    /** Index of a position among its owner's positions of its stage. */
    std::vector<std::uint32_t> local;

    /** Each position's moves in legalMoves() order (CSR by PosId). */
    std::vector<std::uint32_t> moveBegin;
    std::vector<Move> moves;

    /** Positions grouped by (stage, owner), ascending within a group
     *  (CSR by stage * p + owner). */
    std::vector<std::uint32_t> ownedBegin;
    std::vector<PosId> owned;

    /**
     * The pending edges reversed (CSR by successor): the positions
     * whose value waits on a successor's, ascending, so each stage's
     * dependents form one run. Every move is pending except a capture
     * into a position of the mover's own rank, whose lower-stage value
     * is at hand.
     */
    std::vector<std::uint32_t> dependentBegin;
    std::vector<PosId> dependents;
};

Table
buildTable(int max_stones, int p)
{
    Table t;
    t.stageBase.assign(max_stones + 2, 0);
    for (int k = 0; k <= max_stones; ++k)
        t.stageBase[k + 1] = t.stageBase[k] + stageSize(k);
    const PosId n = t.stageBase.back();
    t.owner.resize(n);
    t.local.resize(n);
    t.moveBegin.reserve(n + 1);
    t.moveBegin.push_back(0);
    t.ownedBegin.assign(static_cast<std::size_t>(max_stones + 1) * p + 1,
                        0);

    // The run's only calls to the move generator: the workers read
    // successors from this table.
    std::vector<std::uint32_t> count(p);
    for (int k = 0; k <= max_stones; ++k) {
        std::fill(count.begin(), count.end(), 0);
        const std::vector<std::uint64_t> keys = enumerateStage(k);
        for (std::size_t j = 0; j < keys.size(); ++j) {
            const PosId pos = t.stageBase[k] + static_cast<PosId>(j);
            const Rank o = ownerOf(keys[j], p);
            t.owner[pos] = o;
            t.local[pos] = count[o]++;
            const Position position = decode(keys[j]);
            for (int m : legalMoves(position)) {
                int captured = 0;
                const std::uint64_t sk =
                    encode(applyMove(position, m, &captured));
                t.moves.push_back(
                    {t.stageBase[stonesOf(sk)] + stageRank(sk),
                     captured > 0});
            }
            t.moveBegin.push_back(
                static_cast<std::uint32_t>(t.moves.size()));
        }
        for (Rank r = 0; r < p; ++r)
            t.ownedBegin[k * p + r + 1] = count[r];
    }
    std::partial_sum(t.ownedBegin.begin(), t.ownedBegin.end(),
                     t.ownedBegin.begin());
    t.owned.resize(n);
    for (int k = 0; k <= max_stones; ++k) {
        for (PosId pos = t.stageBase[k]; pos < t.stageBase[k + 1]; ++pos)
            t.owned[t.ownedBegin[k * p + t.owner[pos]] + t.local[pos]] =
                pos;
    }

    auto pending = [&](PosId pos, const Table::Move &mv) {
        return !(mv.captured && t.owner[mv.succ] == t.owner[pos]);
    };
    t.dependentBegin.assign(n + 1, 0);
    for (PosId pos = 0; pos < n; ++pos) {
        for (auto m = t.moveBegin[pos]; m < t.moveBegin[pos + 1]; ++m) {
            if (pending(pos, t.moves[m]))
                ++t.dependentBegin[t.moves[m].succ + 1];
        }
    }
    std::partial_sum(t.dependentBegin.begin(), t.dependentBegin.end(),
                     t.dependentBegin.begin());
    t.dependents.resize(t.dependentBegin.back());
    std::vector<std::uint32_t> fill(t.dependentBegin.begin(),
                                    t.dependentBegin.end() - 1);
    for (PosId pos = 0; pos < n; ++pos) {
        for (auto m = t.moveBegin[pos]; m < t.moveBegin[pos + 1]; ++m) {
            if (pending(pos, t.moves[m]))
                t.dependents[fill[t.moves[m].succ]++] = pos;
        }
    }
    return t;
}

/** The table for (@p max_stones, @p p), built on first use. */
const Table &
sharedTable(int max_stones, int p)
{
    static Memo<std::pair<int, int>, Table> memo;
    return memo.get({max_stones, p},
                    [&] { return buildTable(max_stones, p); });
}

struct Run
{
    Machine &machine;
    Config cfg;
    bool optimized;
    Combiner combiner;
    double costPerUnit;

    const Table &table;
    /** Per pending edge (Table::dependents): set once the dependent's
     *  owner has applied the successor, which only that owner does. */
    std::vector<std::uint8_t> consumed;
    /** Solved value of every position; only its owner writes it. */
    std::vector<Value> values;
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
          costPerUnit(0), table(sharedTable(c.maxStones, m.size())),
          consumed(table.dependents.size(), 0),
          values(table.owner.size(), Value::unknown),
          itemsSent(m.size(), 0), itemsReceived(m.size(), 0),
          parallelCounts(c.maxStones + 1)
    {
    }
};

/** Per-rank working state of one stage, indexed like Table::local. */
struct Stage
{
    int stones = 0;
    /** This rank's positions of the stage, ascending. */
    std::span<const PosId> own;
    std::vector<Value> val;
    std::vector<int> pending;
    /** Remote ranks awaiting the value of an owned position. */
    std::vector<std::vector<Rank>> subscribers;
    std::deque<std::uint32_t> cascade;
    double workUnits = 0;
};

/** Mark local state @p i determined and queue notifications. */
void
determine(Stage &st, std::uint32_t i, Value v)
{
    TLI_ASSERT(st.val[i] == Value::unknown, "double determination");
    st.val[i] = v;
    st.cascade.push_back(i);
}

/** Apply a known successor value to this rank's positions of the stage
 *  that wait on it, in ascending order, once per successor. */
void
applyKnownValue(Run &run, Rank self, Stage &st, PosId succ, Value v)
{
    const Table &t = run.table;
    const PosId stage_end = t.stageBase[st.stones + 1];
    auto first = t.dependents.begin() + t.dependentBegin[succ];
    auto last = t.dependents.begin() + t.dependentBegin[succ + 1];
    for (auto e = std::lower_bound(first, last, t.stageBase[st.stones]);
         e != last && *e < stage_end; ++e) {
        std::uint8_t &consumed = run.consumed[e - t.dependents.begin()];
        if (t.owner[*e] != self || consumed)
            continue;
        consumed = 1;
        const std::uint32_t i = t.local[*e];
        if (st.val[i] != Value::unknown)
            continue;
        if (v == Value::loss)
            determine(st, i, Value::win);
        else if (v == Value::win && --st.pending[i] == 0)
            determine(st, i, Value::loss);
        // A draw successor never resolves a state.
    }
}

/** Drain the cascade queue: notify subscribers, propagate locally. */
void
drainCascade(Run &run, Rank self, Stage &st)
{
    while (!st.cascade.empty()) {
        const std::uint32_t i = st.cascade.front();
        st.cascade.pop_front();
        const PosId pos = st.own[i];
        const Value v = st.val[i];
        run.values[pos] = v;

        for (Rank r : st.subscribers[i]) {
            run.itemsSent[self] += 1;
            run.combiner.add(self, r,
                             Item{Item::Kind::value, v, pos, self});
        }
        applyKnownValue(run, self, st, pos, v);
    }
}

/** Process one incoming protocol item. */
void
processItem(Run &run, Rank self, Stage &st, const Item &item)
{
    run.itemsReceived[self] += 1;
    if (item.kind == Item::Kind::value) {
        applyKnownValue(run, self, st, item.pos, item.value);
        drainCascade(run, self, st);
        return;
    }
    // Request: lower stages are always solved; same-stage states may
    // still be undetermined, in which case the requester subscribes.
    const Table &t = run.table;
    TLI_ASSERT(t.owner[item.pos] == self &&
                   item.pos < t.stageBase[st.stones + 1],
               "request for a state this rank does not own");
    const Value solved = run.values[item.pos];
    if (solved != Value::unknown) {
        run.itemsSent[self] += 1;
        run.combiner.add(self, item.from,
                         Item{Item::Kind::value, solved, item.pos, self});
        return;
    }
    st.subscribers[t.local[item.pos]].push_back(item.from);
}

/** Set up the stage's state and issue the initial requests. */
void
buildStage(Run &run, Rank self, Stage &st)
{
    const Table &t = run.table;
    const std::size_t cell =
        static_cast<std::size_t>(st.stones) * run.machine.size() + self;
    st.own = std::span<const PosId>(t.owned).subspan(
        t.ownedBegin[cell], t.ownedBegin[cell + 1] - t.ownedBegin[cell]);
    const auto n = static_cast<std::uint32_t>(st.own.size());
    st.val.assign(n, Value::unknown);
    st.pending.assign(n, 0);
    st.subscribers.resize(n);

    // Successors requested so far, so each is requested once, in the
    // order of first occurrence.
    std::vector<bool> requested(t.stageBase[st.stones + 1]);
    for (std::uint32_t i = 0; i < n; ++i) {
        const PosId pos = st.own[i];
        const std::uint32_t first = t.moveBegin[pos];
        const std::uint32_t last = t.moveBegin[pos + 1];
        st.workUnits += 1 + (last - first);
        if (first == last) {
            determine(st, i, Value::loss);
            continue;
        }
        bool win = false;
        int pend = 0;
        for (std::uint32_t m = first; m < last; ++m) {
            const Table::Move &mv = t.moves[m];
            const Rank owner = t.owner[mv.succ];
            if (mv.captured && owner == self) {
                const Value v = run.values[mv.succ];
                if (v == Value::loss)
                    win = true;
                else if (v != Value::win)
                    ++pend;
                continue;
            }
            // Same-stage or remote: value not yet at hand.
            ++pend;
            if (owner != self && !requested[mv.succ]) {
                requested[mv.succ] = true;
                run.itemsSent[self] += 1;
                run.combiner.add(self, owner,
                                 Item{Item::Kind::request,
                                      Value::unknown, mv.succ, self});
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
        for (std::size_t i = 0; i < st.own.size(); ++i) {
            if (st.val[i] == Value::unknown) {
                st.val[i] = Value::draw;
                run.values[st.own[i]] = Value::draw;
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
