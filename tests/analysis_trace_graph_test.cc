/**
 * @file
 * The trace-to-graph front end: GraphTraceSink recording, the
 * warmup/measured split, the measurement-end clip, and the validity
 * limits TraceGraph::build enforces on the traced scenario.
 */

#include "analysis/trace_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"

namespace tli::analysis {
namespace {

core::Scenario
tinyScenario()
{
    core::Scenario s;
    s.clusters = 2;
    s.procsPerCluster = 2;
    s.problemScale = 0.25;
    return s;
}

TraceGraph
tracedGraph(const char *app, const char *variant,
            const core::Scenario &s, core::RunResult *out = nullptr)
{
    GraphTraceSink sink;
    core::Scenario traced = s;
    traced.trace = &sink;
    core::RunResult run = apps::findVariant(app, variant).run(traced);
    EXPECT_TRUE(run.verified);
    if (out)
        *out = run;
    return TraceGraph::build(sink, s);
}

TEST(TraceGraph, BaselineMatchesMeasuredRunTime)
{
    core::RunResult run;
    TraceGraph g = tracedGraph("fft", "unopt", tinyScenario(), &run);
    // The graph's end-to-end time is the clock the application read:
    // measurement start to measurement end, teardown excluded.
    EXPECT_DOUBLE_EQ(g.baselineRunTime, run.runTime);
    EXPECT_GT(g.baselineRunTime, 0.0);
}

TEST(TraceGraph, SplitsWarmupFromMeasuredTraffic)
{
    TraceGraph g = tracedGraph("fft", "unopt", tinyScenario());
    EXPECT_FALSE(g.warmup.empty());
    EXPECT_FALSE(g.messages.empty());
    EXPECT_GT(g.interMessages, 0u);
    // Warmup times are relative to measurement start: enqueues from
    // before it are non-positive.
    for (const TraceGraph::Message &m : g.warmup)
        EXPECT_LE(m.enqueue, 0.0);
}

TEST(TraceGraph, EventsStayInsideTheMeasuredWindow)
{
    TraceGraph g = tracedGraph("water", "opt", tinyScenario());
    ASSERT_FALSE(g.events.empty());
    Time prev = 0;
    for (const TraceGraph::Event &e : g.events) {
        // Global order is by baseline time; verification traffic
        // after the measurement end must have been clipped.
        EXPECT_GE(e.when, prev);
        EXPECT_LE(e.when, g.baselineRunTime + 1e-12);
        EXPECT_GE(e.gap, 0.0);
        EXPECT_LT(e.msg, g.messages.size());
        EXPECT_GE(e.rank, 0);
        EXPECT_LT(e.rank, g.ranks);
        prev = e.when;
    }
}

TEST(TraceGraph, ComputeTotalsCoverTheMeasuredWindowOnly)
{
    core::RunResult run;
    TraceGraph g = tracedGraph("fft", "unopt", tinyScenario(), &run);
    EXPECT_GT(g.computeSpanCount, 0u);
    EXPECT_GT(g.computeSeconds, 0.0);
    // Total charged compute cannot exceed ranks x wall time.
    EXPECT_LE(g.computeSeconds,
              g.ranks * g.baselineRunTime * (1 + 1e-9));
}

TEST(TraceGraph, RejectsUntraceableScenarios)
{
    core::Scenario s = tinyScenario();
    EXPECT_TRUE(TraceGraph::validityError(s).empty());

    core::Scenario jittered = s;
    jittered.wanJitterFraction = 0.1;
    EXPECT_FALSE(TraceGraph::validityError(jittered).empty());

    core::Scenario myrinet = s.asAllMyrinet();
    EXPECT_FALSE(TraceGraph::validityError(myrinet).empty());
}

TEST(GraphTraceSink, RecordsMeasurementWindow)
{
    GraphTraceSink sink;
    core::Scenario s = tinyScenario();
    core::Scenario traced = s;
    traced.trace = &sink;
    apps::findVariant("fft", "unopt").run(traced);

    ASSERT_EQ(sink.runs().size(), 1u);
    EXPECT_GT(sink.measurementStart(), 0.0);
    EXPECT_GT(sink.measurementEnd(), sink.measurementStart());
    EXPECT_GT(sink.measuredBegin(), 0u);
    EXPECT_LT(sink.measuredBegin(), sink.messages().size());
    EXPECT_EQ(sink.droppedMessages(), 0u);

    // Message ids are the fabric's injection sequence: strictly
    // increasing through the whole stream.
    for (std::size_t i = 1; i < sink.messages().size(); ++i)
        EXPECT_GT(sink.messages()[i].id, sink.messages()[i - 1].id);
}

/** Delivery events per message, counted from the event list. */
std::vector<std::uint32_t>
deliveriesPerMessage(const TraceGraph &g)
{
    std::vector<std::uint32_t> n(g.messages.size(), 0);
    for (const TraceGraph::Event &e : g.events)
        if (!e.send)
            n[e.msg] += 1;
    return n;
}

TEST(TraceGraph, ArrivalSlotsOutliveEveryDelivery)
{
    for (const char *app : {"fft", "water", "awari"}) {
        SCOPED_TRACE(app);
        TraceGraph g = tracedGraph(
            app, std::string(app) == "fft" ? "unopt" : "opt",
            tinyScenario());
        const std::vector<std::uint32_t> deliveries =
            deliveriesPerMessage(g);
        // Per slot: the message holding it and its deliveries to go.
        std::vector<std::uint32_t> holder(g.arrivalSlots, 0);
        std::vector<std::uint32_t> left(g.arrivalSlots, 0);
        std::vector<bool> sent(g.messages.size(), false);
        for (const TraceGraph::Event &e : g.events) {
            ASSERT_LT(e.slot, g.arrivalSlots);
            if (e.send) {
                ASSERT_EQ(left[e.slot], 0u)
                    << "slot " << e.slot << " reused by message "
                    << e.msg << " before message " << holder[e.slot]
                    << " was delivered everywhere";
                holder[e.slot] = e.msg;
                left[e.slot] = deliveries[e.msg];
                sent[e.msg] = true;
            } else {
                ASSERT_TRUE(sent[e.msg]);
                ASSERT_EQ(holder[e.slot], e.msg);
                ASSERT_GT(left[e.slot], 0u);
                left[e.slot] -= 1;
            }
        }
        // Reuse is what keeps a replay's arrival buffer small.
        EXPECT_LT(g.arrivalSlots, g.messages.size());
    }
}

TEST(TraceGraph, OrderingPairsAreNumberedDensely)
{
    core::Scenario s = tinyScenario();
    s.clusters = 4;
    TraceGraph g = tracedGraph("water", "opt", s);
    std::map<std::pair<Rank, Rank>, std::uint32_t> seen;
    std::vector<bool> used(g.orderingPairs, false);
    for (const auto *list : {&g.warmup, &g.messages}) {
        for (const TraceGraph::Message &m : *list) {
            if (!m.inter)
                continue;
            ASSERT_LE(m.pairs + m.dsts.size(), g.pairIds.size());
            for (std::size_t i = 0; i < m.dsts.size(); ++i) {
                const std::uint32_t id = g.pairIds[m.pairs + i];
                ASSERT_LT(id, g.orderingPairs);
                auto [it, fresh] =
                    seen.emplace(std::pair{m.src, m.dsts[i]}, id);
                // One number per pair, and one pair per number.
                EXPECT_EQ(it->second, id);
                if (fresh) {
                    EXPECT_FALSE(used[id]);
                    used[id] = true;
                }
            }
        }
    }
    EXPECT_EQ(seen.size(), g.orderingPairs);
}

TEST(TraceGraphDeathTest, IdsPastThirtyTwoBitsAbort)
{
    EXPECT_EQ(TraceGraph::idBound(0xFFFFFFFEu, "messages"), 0xFFFFFFFEu);
    EXPECT_DEATH((void)TraceGraph::idBound(0xFFFFFFFFu, "messages"),
                 "trace too large for 32-bit ids: 4294967295 messages");
    EXPECT_DEATH(
        (void)TraceGraph::idBound(std::size_t{1} << 32, "arrival slots"),
        "trace too large for 32-bit ids: 4294967296 arrival slots");
}

} // namespace
} // namespace tli::analysis
