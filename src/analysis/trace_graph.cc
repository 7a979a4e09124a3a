#include "analysis/trace_graph.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "net/pair_map.h"
#include "sim/logging.h"

namespace tli::analysis {

void
GraphTraceSink::onRunBegin(const std::string &label)
{
    runs_.push_back(label);
}

void
GraphTraceSink::onMessage(const sim::MessageTrace &m)
{
    if (m.dropped) {
        dropped_ += 1;
        return;
    }
    Message rec;
    rec.id = m.id;
    rec.src = m.src;
    rec.bytes = m.bytes;
    rec.inter = m.inter;
    rec.srcCluster = m.srcCluster;
    rec.dstCluster = m.dstCluster;
    rec.enqueue = m.enqueue;
    rec.deliver = m.deliver;
    if (m.fanoutDsts)
        rec.dsts.assign(m.fanoutDsts, m.fanoutDsts + m.fanout);
    else
        rec.dsts.assign(1, m.dst);
    messages_.push_back(std::move(rec));
}

void
GraphTraceSink::onPhase(const sim::PhaseTrace &p)
{
    // Only the calibrated compute charges are work the replay can
    // trust; scoped markers ("reduce", "steal", ...) include waiting.
    if (std::strcmp(p.name, "compute") != 0)
        return;
    if (p.rank >= static_cast<Rank>(spans_.size()))
        spans_.resize(p.rank + 1);
    spans_[p.rank].push_back({p.begin, p.end});
}

void
GraphTraceSink::onMeasurementStart(Time now)
{
    measuredBegin_ = messages_.size();
    measurementStart_ = now;
}

void
GraphTraceSink::onMeasurementEnd(Time now)
{
    measurementEnd_ = now;
}

std::string
TraceGraph::validityError(const core::Scenario &scenario)
{
    std::ostringstream os;
    if (scenario.allMyrinet) {
        os << "an all-Myrinet trace has no wide-area parameters to "
              "vary; trace a das point instead";
    } else if (scenario.wanJitterFraction > 0) {
        os << "wan jitter makes the traced timeline stochastic; the "
              "replay would attribute the draws to latency";
    } else if (scenario.impaired()) {
        os << "wan impairments (loss/outages) change the message "
              "pattern with the network; trace an unimpaired run";
    }
    return os.str();
}

namespace {

/** Compute-span overlap with (prev, cur], advancing the cursor past
 *  fully consumed spans. Spans are per-rank and non-overlapping. */
Time
spanOverlap(const std::vector<GraphTraceSink::Span> &spans,
            std::size_t &cursor, Time prev, Time cur)
{
    while (cursor < spans.size() && spans[cursor].end <= prev)
        ++cursor;
    Time work = 0;
    for (std::size_t j = cursor;
         j < spans.size() && spans[j].begin < cur; ++j) {
        Time b = spans[j].begin > prev ? spans[j].begin : prev;
        Time e = spans[j].end < cur ? spans[j].end : cur;
        if (e > b)
            work += e - b;
    }
    return work;
}

} // namespace

TraceGraph
TraceGraph::build(const GraphTraceSink &sink,
                  const core::Scenario &scenario)
{
    TLI_ASSERT(validityError(scenario).empty(),
               "untraceable scenario: ", validityError(scenario));
    TLI_ASSERT(sink.runs().size() == 1,
               "TraceGraph needs exactly one traced run, sink saw ",
               sink.runs().size());
    TLI_ASSERT(sink.droppedMessages() == 0,
               "trace contains dropped wide-area messages");

    TraceGraph g;
    g.scenario = scenario;
    g.scenario.trace = nullptr;
    g.ranks = scenario.totalRanks();
    g.measurementStart = sink.measurementStart();

    // The reported run time stops at the measurement-end mark; traffic
    // injected after it (verification, teardown) queues behind all
    // measured traffic and cannot influence anything the model
    // predicts, so it is excluded wholesale.
    const Time mend =
        sink.measurementEnd() > sink.measurementStart()
            ? sink.measurementEnd()
            : std::numeric_limits<Time>::infinity();

    const net::FabricParams fp = scenario.fabricParams();
    const Time loopback_cost = fp.local.perMessageCost;

    const std::vector<GraphTraceSink::Message> &all = sink.messages();
    g.warmup.reserve(sink.measuredBegin());
    g.messages.reserve(all.size() - sink.measuredBegin());
    for (std::size_t i = 0; i < all.size(); ++i) {
        const GraphTraceSink::Message &m = all[i];
        if (m.enqueue > mend)
            continue;
        TLI_ASSERT(m.src >= 0 && m.src < g.ranks,
                   "traced source rank out of range: ", m.src);
        Message msg;
        msg.id = m.id;
        msg.src = m.src;
        msg.bytes = m.bytes;
        msg.inter = m.inter;
        msg.srcCluster = m.srcCluster;
        msg.dstCluster = m.dstCluster;
        msg.enqueue = m.enqueue;
        msg.deliver = m.deliver;
        msg.dsts = m.dsts;
        for (Rank d : msg.dsts) {
            TLI_ASSERT(d >= 0 && d < g.ranks,
                       "traced destination rank out of range: ", d);
        }
        // A self-send charges only the local per-message cost and
        // never occupies the NIC; its trace is recognizable by the
        // exact arrival the fabric computed for it.
        msg.loopback = !msg.inter && msg.dsts.size() == 1 &&
                       msg.dsts[0] == msg.src &&
                       msg.deliver == msg.enqueue + loopback_cost;
        if (i < sink.measuredBegin()) {
            // Warmup traffic: no events, but its residual link
            // occupancy shapes the first measured arrivals.
            msg.enqueue -= g.measurementStart;
            msg.deliver -= g.measurementStart;
            g.warmup.push_back(std::move(msg));
            continue;
        }
        if (msg.inter)
            g.interMessages += 1;
        TLI_ASSERT(g.messages.empty() || msg.id > g.messages.back().id,
                   "traced message ids out of order at ", msg.id);
        g.messages.push_back(std::move(msg));
    }
    idBound(g.messages.size(), "messages");

    // Number every (src, dst) pair an inter-cluster message orders on,
    // in first-use order, so the replay's delivery-order clamp indexes
    // a dense array instead of probing a hash map.
    {
        constexpr std::uint32_t unnumbered = ~std::uint32_t{0};
        net::PairMap<std::uint32_t> number(unnumbered);
        std::size_t pairs = 0, ids = 0;
        for (const std::vector<Message> *list : {&g.warmup, &g.messages})
            for (const Message &m : *list)
                ids += m.inter ? m.dsts.size() : 0;
        g.pairIds.reserve(ids);
        for (std::vector<Message> *list : {&g.warmup, &g.messages}) {
            for (Message &m : *list) {
                if (!m.inter)
                    continue;
                m.pairs = idBound(g.pairIds.size(), "ordering pair ids");
                for (Rank d : m.dsts) {
                    std::uint32_t &n = number.ref(m.src, d);
                    if (n == unnumbered)
                        n = idBound(pairs++, "ordering pairs");
                    g.pairIds.push_back(n);
                }
            }
        }
        g.orderingPairs = idBound(pairs, "ordering pairs");
    }

    // One event per send (source rank) and one per delivery (each
    // destination), ordered globally by (baseline time, message id,
    // send-before-delivery). Message ids increase with injection and
    // injection times never decrease, so sends sort in the exact
    // order the fabric advanced its link horizons. messages is in id
    // order (asserted above), so the message index stands in for the
    // id and a RawEvent packs into 24 bytes.
    struct RawEvent
    {
        Time time;
        std::uint32_t msg;
        Rank rank;
        bool send;
    };
    std::vector<RawEvent> raw;
    raw.reserve(2 * g.messages.size());
    for (std::uint32_t i = 0; i < g.messages.size(); ++i) {
        const Message &m = g.messages[i];
        raw.push_back({m.enqueue, i, m.src, true});
        // A delivery past the measurement end can only feed events
        // that are themselves past the end: drop it.
        if (m.deliver > mend)
            continue;
        for (Rank d : m.dsts)
            raw.push_back({m.deliver, i, d, false});
    }
    std::sort(raw.begin(), raw.end(),
              [](const RawEvent &a, const RawEvent &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.msg != b.msg)
                      return a.msg < b.msg;
                  if (a.send != b.send)
                      return a.send; // send before its deliveries
                  return a.rank < b.rank;
              });

    const auto &all_spans = sink.computeSpans();
    static const std::vector<GraphTraceSink::Span> no_spans;
    std::vector<Time> prev(g.ranks, g.measurementStart);
    std::vector<std::size_t> cursor(g.ranks, 0);

    // Idle detection: fp dust from summing span lengths is well below
    // this, real waits are at least a link latency (microseconds).
    constexpr Time idle_tol = 1e-12;

    // Arrival slots: a send takes a free slot (the most recently
    // freed first) and its message's last delivery frees it again; a
    // message without measured deliveries frees it at once.
    std::vector<std::uint32_t> deliveriesLeft; // per slot
    std::vector<std::uint32_t> freeSlots;

    g.events.reserve(raw.size());
    for (const RawEvent &e : raw) {
        const auto &spans =
            e.rank < static_cast<Rank>(all_spans.size())
                ? all_spans[e.rank]
                : no_spans;
        Time gap = e.time - prev[e.rank];
        Time work = spanOverlap(spans, cursor[e.rank], prev[e.rank],
                                e.time);
        const bool blocked = gap - work > idle_tol;
        if (!e.send && blocked) {
            // The idle tail is the wait for this arrival; charge only
            // the compute and let the replay re-compute the wait.
            gap = work;
        }
        Message &m = g.messages[e.msg];
        std::uint32_t left;
        if (e.send) {
            if (freeSlots.empty()) {
                m.slot = idBound(deliveriesLeft.size(), "arrival slots");
                deliveriesLeft.push_back(0);
            } else {
                m.slot = freeSlots.back();
                freeSlots.pop_back();
            }
            left = m.deliver > mend
                       ? 0
                       : static_cast<std::uint32_t>(m.dsts.size());
        } else {
            // Sends sort before their deliveries: the slot is held.
            TLI_ASSERT(deliveriesLeft.size() > m.slot &&
                           deliveriesLeft[m.slot] > 0,
                       "delivery of message ", m.id,
                       " without a pending send");
            left = deliveriesLeft[m.slot] - 1;
        }
        deliveriesLeft[m.slot] = left;
        if (left == 0)
            freeSlots.push_back(m.slot);
        g.events.push_back({gap, e.time - g.measurementStart, e.msg,
                            m.slot, e.rank, e.send, blocked});
        prev[e.rank] = e.time;
    }
    g.arrivalSlots = idBound(deliveriesLeft.size(), "arrival slots");

    // Trailing activity: compute charged after a rank's last event
    // extends that rank's timeline past it.
    g.tails.assign(g.ranks, 0);
    Time end = g.measurementStart;
    for (Rank r = 0; r < g.ranks; ++r) {
        const auto &spans = r < static_cast<Rank>(all_spans.size())
                                ? all_spans[r]
                                : no_spans;
        Time rank_end = prev[r];
        // Last compute span starting inside the measured window; its
        // charge past the measurement end belongs to teardown.
        auto it = std::partition_point(
            spans.begin(), spans.end(),
            [&](const GraphTraceSink::Span &s) {
                return s.begin < mend;
            });
        if (it != spans.begin()) {
            Time e = std::min((it - 1)->end, mend);
            if (e > rank_end)
                rank_end = e;
        }
        g.tails[r] = rank_end - prev[r];
        if (rank_end > end)
            end = rank_end;
    }
    g.baselineRunTime = end - g.measurementStart;

    // Totals cover the measured window only (spans straddling either
    // edge are clipped), mirroring the fabric's own counters.
    for (const auto &spans : all_spans) {
        for (const GraphTraceSink::Span &s : spans) {
            if (s.begin >= mend)
                break;
            if (s.end <= g.measurementStart)
                continue;
            g.computeSpanCount += 1;
            Time b = s.begin > g.measurementStart ? s.begin
                                                  : g.measurementStart;
            Time e = s.end < mend ? s.end : mend;
            g.computeSeconds += e - b;
        }
    }
    return g;
}

std::uint32_t
TraceGraph::idBound(std::size_t count, const char *what)
{
    // The all-ones value stays free as build()'s "none" marker.
    TLI_ASSERT(count < std::numeric_limits<std::uint32_t>::max(),
               "trace too large for 32-bit ids: ", count, " ", what);
    return static_cast<std::uint32_t>(count);
}

} // namespace tli::analysis
