#include "core/run_report.h"

#include <cmath>
#include <ostream>

#include "core/json.h"
#include "core/scenario.h"
#include "net/fabric.h"

namespace tli::core {

void
ReportSink::onRunBegin(const std::string &label)
{
    runs_.push_back(label);
}

void
ReportSink::onMessage(const sim::MessageTrace &m)
{
    messages_ += 1;
    if (!m.inter)
        return;
    if (m.dropped) {
        // Lost at the WAN ingress: the fabric's inter counter never
        // saw it either, so keeping it out of interMessages_ preserves
        // the exact lockstep with FabricStats.
        droppedInter_ += 1;
        return;
    }
    interMessages_ += 1;
    Time wan = m.wanDone - m.gatewayDone;
    wanTransit_ += wan;
    PairTotal &pair = pairs_[{m.srcCluster, m.dstCluster}];
    pair.messages += 1;
    pair.bytes += m.bytes;
    pair.wanSeconds += wan;
    if (bucketSeconds_ > 0) {
        double offset = m.gatewayDone - measurementStart_;
        auto idx = static_cast<std::size_t>(
            offset > 0 ? offset / bucketSeconds_ : 0);
        if (idx >= timeline_.size())
            timeline_.resize(idx + 1);
        timeline_[idx].messages += 1;
        timeline_[idx].wanSeconds += wan;
    }
}

void
ReportSink::onPhase(const sim::PhaseTrace &p)
{
    PhaseTotal &total = phases_[p.name];
    total.count += 1;
    total.seconds += p.end - p.begin;
}

void
ReportSink::onMeasurementStart(Time now)
{
    phases_.clear();
    pairs_.clear();
    timeline_.clear();
    messages_ = 0;
    interMessages_ = 0;
    droppedInter_ = 0;
    wanTransit_ = 0;
    measurementStart_ = now;
}

void
writeLinkStatsJson(JsonWriter &w, const net::LinkStats &s)
{
    w.beginObject()
        .field("messages", s.messages)
        .field("bytes", s.bytes)
        .field("busy_s", s.busyTime)
        .endObject();
}

void
writeScenarioJson(JsonWriter &w, const Scenario &scenario)
{
    w.beginObject();
    w.field("description", scenario.describe());
    w.field("clusters", scenario.clusters);
    w.field("procs_per_cluster", scenario.procsPerCluster);
    w.field("wan_bandwidth_mbs", scenario.wanBandwidthMBs);
    w.field("wan_latency_ms", scenario.wanLatencyMs);
    w.field("all_myrinet", scenario.allMyrinet);
    w.field("wan_jitter", scenario.wanJitterFraction);
    w.field("wan_topology", scenario.wanShape.name());
    // Dims only exist for torus/mesh; omitting them elsewhere keeps
    // dimensionless reports byte-identical to the pre-torus schema.
    if (!scenario.wanShape.dims().empty()) {
        w.field("wan_dims",
                net::wanDimsSpec(scenario.wanShape.dims()));
    }
    w.field("wan_loss", scenario.wanLossRate);
    w.field("wan_outage_start", scenario.wanOutageStartS);
    w.field("wan_outage_duration", scenario.wanOutageDurationS);
    w.field("wan_outage_period", scenario.wanOutagePeriodS);
    w.field("wan_outage_queue", scenario.wanOutageQueue);
    w.field("problem_scale", scenario.problemScale);
    w.field("seed", scenario.seed);
    // The collective policy spec, spelled exactly as --collectives
    // and Scenario::fingerprint() spell it; emitted only when
    // non-default so default-policy reports stay byte-identical to
    // the pre-policy schema.
    if (!scenario.collectives.isDefault())
        w.field("collectives", scenario.collectives.spec());
    w.endObject();
}

void
writeRunReport(std::ostream &os, const std::string &label,
               const Scenario &scenario, const RunResult &result,
               const ReportSink *trace, std::int64_t peak_rss_bytes)
{
    const net::FabricStats &t = result.traffic;
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "tli-run-report-v1");
    w.field("label", label);
    if (peak_rss_bytes >= 0)
        w.field("peak_rss_bytes", peak_rss_bytes);

    w.key("scenario");
    writeScenarioJson(w, scenario);

    w.key("result").beginObject();
    w.field("run_time_s", result.runTime);
    w.field("checksum", result.checksum);
    w.field("verified", result.verified);
    w.field("inter_volume_mbs", result.interVolumeMBs());
    w.field("inter_msgs_per_sec", result.interMsgsPerSec());
    w.field("load_imbalance", result.loadImbalance());
    w.key("compute_per_rank_s").beginArray();
    for (double s : result.computePerRank)
        w.value(s);
    w.endArray();
    // The dispatch decisions actually taken, so a tuned run's variant
    // selection is reproducible from its report alone. Emitted only
    // under a non-default policy: default-policy reports stay
    // byte-identical to the pre-policy schema.
    if (!scenario.collectives.isDefault()) {
        w.key("collective_dispatch").beginArray();
        for (const std::string &d : result.collectiveDispatch)
            w.value(d);
        w.endArray();
    }
    w.endObject();

    w.key("traffic").beginObject();
    w.key("intra");
    writeLinkStatsJson(w, t.intra);
    w.key("inter");
    writeLinkStatsJson(w, t.inter);
    w.field("wan_transit_s", t.wanTransit);
    w.field("max_wan_utilization",
            t.maxWanUtilization(result.runTime));
    w.field("wan_loss_drops", t.wanLossDrops);
    w.field("wan_outage_drops", t.wanOutageDrops);
    w.key("delivery")
        .beginObject()
        .field("retransmits", t.delivery.retransmits)
        .field("duplicates", t.delivery.duplicates)
        .field("acks", t.delivery.acks)
        .field("duplicate_acks", t.delivery.duplicateAcks)
        .endObject();
    w.key("per_cluster_outbound").beginArray();
    for (const net::LinkStats &s : t.interPerCluster)
        writeLinkStatsJson(w, s);
    w.endArray();
    w.key("wan_links").beginArray();
    for (const net::WanLinkEntry &e : t.wanLinks) {
        // Idle links stay out of the report; the full matrix is
        // mostly zeros on larger machines.
        if (e.stats.messages == 0)
            continue;
        w.beginObject().field("a", e.a);
        if (e.b != invalidCluster)
            w.field("b", e.b);
        w.field("kind", e.kind)
            .field("messages", e.stats.messages)
            .field("bytes", e.stats.bytes)
            .field("busy_s", e.stats.busyTime)
            .endObject();
    }
    w.endArray();
    w.endObject();

    if (trace) {
        w.key("trace").beginObject();
        w.key("runs").beginArray();
        for (const std::string &r : trace->runs())
            w.value(r);
        w.endArray();
        w.field("messages", trace->messages());
        w.field("inter_messages", trace->interMessages());
        w.field("dropped_inter_messages",
                trace->droppedInterMessages());
        w.field("wan_transit_s", trace->wanTransit());

        w.key("phases").beginArray();
        for (const auto &[name, total] : trace->phases()) {
            w.beginObject()
                .field("name", name)
                .field("count", total.count)
                .field("seconds", total.seconds)
                .endObject();
        }
        w.endArray();

        w.key("cluster_pairs").beginArray();
        for (const auto &[pair, total] : trace->clusterPairs()) {
            w.beginObject()
                .field("src", pair.first)
                .field("dst", pair.second)
                .field("messages", total.messages)
                .field("bytes", total.bytes)
                .field("wan_s", total.wanSeconds)
                .endObject();
        }
        w.endArray();

        w.key("wan_timeline").beginObject();
        w.field("bucket_s", trace->bucketSeconds());
        w.key("buckets").beginArray();
        for (const ReportSink::Bucket &b : trace->timeline()) {
            w.beginObject()
                .field("messages", b.messages)
                .field("wan_s", b.wanSeconds)
                .endObject();
        }
        w.endArray();
        w.endObject();

        w.endObject();
    }

    w.endObject();
}

} // namespace tli::core
