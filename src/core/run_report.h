/**
 * @file
 * Machine-readable run reports: an aggregating TraceSink condensing
 * the message/phase stream into totals, and the writer producing the
 * stable "tli-run-report-v1" JSON document tools emit with --json.
 */

#ifndef TWOLAYER_CORE_RUN_REPORT_H_
#define TWOLAYER_CORE_RUN_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/link.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace tli::core {

class JsonWriter;
struct Scenario;
struct RunResult;

/**
 * Aggregating trace sink: folds the per-message / per-phase event
 * stream into totals a report can print — no event is stored, so
 * memory stays O(phases + cluster pairs + timeline buckets).
 *
 * Aggregates cover everything observed since the last
 * onMeasurementStart() (fired by Fabric::resetStats()), which keeps
 * them in exact lockstep with the fabric's own counters: the summed
 * WAN seconds here equal FabricStats::wanTransit to the bit.
 */
class ReportSink : public sim::TraceSink
{
  public:
    /** @param bucketSeconds width of the WAN-activity timeline bins. */
    explicit ReportSink(Time bucketSeconds = 0.1)
        : bucketSeconds_(bucketSeconds)
    {
    }

    struct PhaseTotal
    {
        std::uint64_t count = 0;
        Time seconds = 0;
    };

    struct PairTotal
    {
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        /** Summed gateway-to-gateway transit, seconds. */
        Time wanSeconds = 0;
    };

    /** One timeline bin of wide-area activity. */
    struct Bucket
    {
        std::uint64_t messages = 0;
        Time wanSeconds = 0;
    };

    void onRunBegin(const std::string &label) override;
    void onMessage(const sim::MessageTrace &m) override;
    void onPhase(const sim::PhaseTrace &p) override;
    void onMeasurementStart(Time now) override;

    /** Labels of the runs observed (one per Machine constructed). */
    const std::vector<std::string> &runs() const { return runs_; }

    /** Per-phase totals summed over ranks, keyed by phase name. */
    const std::map<std::string, PhaseTotal> &
    phases() const
    {
        return phases_;
    }

    /** Wide-area totals per (source, destination) cluster pair. */
    const std::map<std::pair<ClusterId, ClusterId>, PairTotal> &
    clusterPairs() const
    {
        return pairs_;
    }

    /** WAN activity per bucketSeconds()-wide bin since measurement. */
    const std::vector<Bucket> &timeline() const { return timeline_; }
    Time bucketSeconds() const { return bucketSeconds_; }

    std::uint64_t messages() const { return messages_; }
    std::uint64_t interMessages() const { return interMessages_; }
    /** Wide-area messages lost at the WAN ingress (loss or outage);
     *  kept out of interMessages() to match the fabric's counter. */
    std::uint64_t droppedInterMessages() const { return droppedInter_; }
    /** Summed WAN transit; equals FabricStats::wanTransit exactly. */
    Time wanTransit() const { return wanTransit_; }
    Time measurementStart() const { return measurementStart_; }

  private:
    Time bucketSeconds_;
    std::vector<std::string> runs_;
    std::map<std::string, PhaseTotal> phases_;
    std::map<std::pair<ClusterId, ClusterId>, PairTotal> pairs_;
    std::vector<Bucket> timeline_;
    std::uint64_t messages_ = 0;
    std::uint64_t interMessages_ = 0;
    std::uint64_t droppedInter_ = 0;
    Time wanTransit_ = 0;
    Time measurementStart_ = 0;
};

/**
 * Write one scenario as a JSON object (the "scenario" block every
 * tli-* document shares): description plus every semantic knob, with
 * the conditional fields (wan_dims) appended only when set so
 * existing documents stay byte-identical. The caller opens the key;
 * this writes the object value.
 */
void writeScenarioJson(JsonWriter &w, const Scenario &scenario);

/**
 * Write one link's usage counters as a JSON object — {messages,
 * bytes, busy_s} — the one spelling the run report and the result
 * cache share. The caller opens the key.
 */
void writeLinkStatsJson(JsonWriter &w, const net::LinkStats &s);

/**
 * Write the stable machine-readable report for one application run:
 * schema "tli-run-report-v1" with scenario, headline results, the
 * full FabricStats breakdown, and (when @p trace is non-null) the
 * sink's phase/cluster-pair/timeline aggregates.
 *
 * @param label tool-level run label, e.g. "water/clustered".
 * @param peak_rss_bytes process peak resident set to record, or a
 *        negative value to omit the field (the default keeps existing
 *        documents byte-identical). Host-machine measurement, never a
 *        simulation output — it lives outside the "result" object.
 */
void writeRunReport(std::ostream &os, const std::string &label,
                    const Scenario &scenario, const RunResult &result,
                    const ReportSink *trace = nullptr,
                    std::int64_t peak_rss_bytes = -1);

} // namespace tli::core

#endif // TWOLAYER_CORE_RUN_REPORT_H_
