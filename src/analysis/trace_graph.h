/**
 * @file
 * Trace-to-graph front end of the analytical prediction subsystem:
 * a TraceSink that records one run's message/phase stream, and the
 * builder that turns it into a per-rank dependency DAG — compute
 * segments between communication events, message edges carrying the
 * LogGP-style (o + bytes/B + L) decomposition of net::Link — that the
 * critical-path engine replays under different wide-area parameters
 * without re-simulating (LLAMP-style, see DESIGN.md §14).
 */

#ifndef TWOLAYER_ANALYSIS_TRACE_GRAPH_H_
#define TWOLAYER_ANALYSIS_TRACE_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace tli::analysis {

/**
 * Records one traced run verbatim: every message with its fan-out
 * destinations and every "compute" phase span. Messages observed
 * before onMeasurementStart are kept as warmup traffic — their link
 * occupancy extends into the measured window (the fabric resets its
 * counters there, not its link horizons), so the replay needs them to
 * reproduce the first measured arrivals. Purely observational —
 * attaching it leaves the run bit-identical to an untraced one.
 *
 * Memory is O(messages + compute spans) of the whole run; the sink is
 * meant for single runs, not sweeps (build() rejects a sink that
 * observed more than one run).
 */
class GraphTraceSink : public sim::TraceSink
{
  public:
    /** One recorded message; dsts holds the full fan-out. */
    struct Message
    {
        std::uint64_t id = 0;
        Rank src = invalidNode;
        std::uint64_t bytes = 0;
        bool inter = false;
        ClusterId srcCluster = invalidCluster;
        ClusterId dstCluster = invalidCluster;
        Time enqueue = 0;
        Time deliver = 0;
        std::vector<Rank> dsts;
    };

    /** One charged compute span on one rank. */
    struct Span
    {
        Time begin = 0;
        Time end = 0;
    };

    void onRunBegin(const std::string &label) override;
    void onMessage(const sim::MessageTrace &m) override;
    void onPhase(const sim::PhaseTrace &p) override;
    void onMeasurementStart(Time now) override;
    void onMeasurementEnd(Time now) override;

    const std::vector<std::string> &runs() const { return runs_; }
    const std::vector<Message> &messages() const { return messages_; }
    /** Compute spans per rank, in emission (begin-time) order. */
    const std::vector<std::vector<Span>> &
    computeSpans() const
    {
        return spans_;
    }
    Time measurementStart() const { return measurementStart_; }
    /** End of the measured phase, or 0 if the run never marked one. */
    Time measurementEnd() const { return measurementEnd_; }
    /** Index of the first measured message; earlier ones are warmup. */
    std::size_t measuredBegin() const { return measuredBegin_; }
    std::uint64_t droppedMessages() const { return dropped_; }

  private:
    std::vector<std::string> runs_;
    std::vector<Message> messages_;
    std::vector<std::vector<Span>> spans_;
    Time measurementStart_ = 0;
    Time measurementEnd_ = 0;
    std::size_t measuredBegin_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * The dependency DAG of one traced run, in replay form: one event per
 * send (on the source rank) and per delivery (on each destination
 * rank), globally ordered by baseline time with ties broken by the
 * deterministic message id — for sends this equals the original
 * injection order, so replaying link contention in this order
 * reproduces the traced run's timestamps exactly at the traced
 * wide-area point.
 *
 * Each event carries the gap to the previous event on its rank and a
 * "blocked" bit. A rank's simulated time only advances through
 * charged compute or through blocking on a delivery, and within one
 * inter-event interval compute is contiguous from the start (any
 * resumption mid-interval would itself be a delivery event) — so a
 * gap exceeding the compute charged in it means the rank idled in
 * the tail, waiting for an arrival. Only there does the replay clamp
 * the rank clock — a blocked delivery against its own message's
 * arrival (the one that resumed the waiting coroutine), a blocked
 * send against the rank's pending-arrival horizon; deliveries that
 * arrived under the rank's compute never gate it. That is what lets
 * an overlapped application stay latency-insensitive in the
 * prediction while a blocking one degrades, and a faster wide area
 * legitimately finish sooner than the trace.
 */
struct TraceGraph
{
    /** The traced scenario (trace pointer cleared). */
    core::Scenario scenario;
    int ranks = 0;
    Time measurementStart = 0;
    /** Trace-derived end-to-end run time of the measured phase. */
    Time baselineRunTime = 0;

    struct Message
    {
        std::uint64_t id = 0;
        Rank src = invalidNode;
        /** Inter-cluster only: index into pairIds of the ordering-pair
         *  number of (src, dsts[0]); the other destinations' follow. */
        std::uint32_t pairs = 0;
        std::uint64_t bytes = 0;
        bool inter = false;
        /** Charge only the local per-message cost (self-send). */
        bool loopback = false;
        ClusterId srcCluster = invalidCluster;
        ClusterId dstCluster = invalidCluster;
        /** Measured messages only: the arrival slot of its events
         *  (Event::slot). */
        std::uint32_t slot = 0;
        Time enqueue = 0;
        Time deliver = 0;
        std::vector<Rank> dsts;
    };

    struct Event
    {
        /** Replayed time charge from the rank's previous event: the
         *  full baseline gap, except for a blocked delivery where it
         *  is only the compute actually charged (the idle tail is the
         *  wait the replay re-computes). */
        Time gap = 0;
        /** Baseline time relative to measurementStart — the value a
         *  replay at the traced point must reproduce (used by the
         *  exactness tests, not by the replay itself). */
        Time when = 0;
        /** Index into messages. */
        std::uint32_t msg = 0;
        /** Arrival slot: a send writes its message's arrival here and
         *  each delivery reads it. A slot is reused only after the
         *  last delivery of the message holding it, so a replay's
         *  arrival buffer is O(messages in flight), not O(messages). */
        std::uint32_t slot = 0;
        Rank rank = invalidNode;
        bool send = false;
        /** The baseline interval contained idle time: the rank was
         *  genuinely waiting on arrivals, so the replay must clamp
         *  its clock against the pending-arrival horizon here. */
        bool blocked = false;
    };

    std::vector<Message> messages;
    /**
     * Pre-measurement traffic in injection order, enqueue/deliver
     * relative to measurementStart (so non-positive enqueues). These
     * carry no events; the replay pushes them through its link models
     * first so residual occupancy at measurement start — which delays
     * the first measured arrivals in the real fabric — is reproduced.
     */
    std::vector<Message> warmup;
    /** Global replay order: (baseline time, message id, send-first). */
    std::vector<Event> events;
    /** Per-rank trailing activity after the rank's last event. */
    std::vector<Time> tails;

    /** Ordering-pair numbers of every inter-cluster message's (src,
     *  dst) pairs, warmup included (see Message::pairs): each distinct
     *  pair gets one number in [0, orderingPairs), so a replay keeps
     *  the delivery-order horizons in a dense array, not a hash map. */
    std::vector<std::uint32_t> pairIds;
    std::uint32_t orderingPairs = 0;
    /** Arrival slots the events use (the most messages in flight). */
    std::uint32_t arrivalSlots = 0;

    /** Totals for reports. */
    std::uint64_t computeSpanCount = 0;
    Time computeSeconds = 0;
    std::uint64_t interMessages = 0;

    /**
     * Whether @p scenario produces a trace this model can replay
     * faithfully. Returns "" when it can, else one readable problem:
     * jittered latency and impairments make the timeline stochastic,
     * and an all-Myrinet trace has no wide-area structure to vary —
     * the documented validity limits of the analysis.
     */
    static std::string validityError(const core::Scenario &scenario);

    /**
     * Build the replay graph from one recorded run. TLI_FATALs on a
     * scenario validityError(), a sink that observed zero or several
     * runs, dropped messages, or events outside the machine — the
     * same contract violations a mis-wired harness would hit — and
     * on a trace too large for 32-bit ids (idBound).
     */
    static TraceGraph build(const GraphTraceSink &sink,
                            const core::Scenario &scenario);

    /**
     * @p count as a 32-bit id bound (an Event's msg and slot, a
     * Message's pairs index). TLI_ASSERTs, naming @p what, that it
     * fits: build() refuses a trace too large for them rather than
     * wrapping.
     */
    static std::uint32_t idBound(std::size_t count, const char *what);
};

} // namespace tli::analysis

#endif // TWOLAYER_ANALYSIS_TRACE_GRAPH_H_
