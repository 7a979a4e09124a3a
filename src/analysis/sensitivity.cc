#include "analysis/sensitivity.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "core/json.h"
#include "core/run_report.h"
#include "net/config.h"
#include "sim/logging.h"

namespace tli::analysis {

namespace {

core::Surface
emptySurface(const std::string &title,
             const std::vector<double> &bandwidths_mbs,
             const std::vector<double> &latencies_ms)
{
    core::Surface s;
    s.title = title;
    s.bandwidthsMBs = bandwidths_mbs;
    s.latenciesMs = latencies_ms;
    s.values.assign(latencies_ms.size(),
                    std::vector<double>(bandwidths_mbs.size(), 0));
    return s;
}

void
writeSurfaceValues(core::JsonWriter &w, const core::Surface &s)
{
    w.beginArray();
    for (const std::vector<double> &row : s.values) {
        w.beginArray();
        for (double v : row)
            w.value(v);
        w.endArray();
    }
    w.endArray();
}

} // namespace

PredictionStudy
predictStudy(const TraceGraph &graph,
             std::vector<double> bandwidths_mbs,
             std::vector<double> latencies_ms)
{
    if (bandwidths_mbs.empty())
        bandwidths_mbs = net::figureBandwidthsMBs();
    if (latencies_ms.empty())
        latencies_ms = net::figureLatenciesMs();

    Predictor predictor(graph);

    PredictionStudy out;
    out.runTimeS = emptySurface("predicted run time (s)",
                                bandwidths_mbs, latencies_ms);
    out.speedupFraction =
        emptySurface("predicted fraction of all-Myrinet speedup",
                     bandwidths_mbs, latencies_ms);
    out.wanLatencyShareS =
        emptySurface("critical-path WAN latency seconds",
                     bandwidths_mbs, latencies_ms);
    out.wanBandwidthShareS =
        emptySurface("critical-path WAN serialization seconds",
                     bandwidths_mbs, latencies_ms);

    // Every cell, the traced point and the all-Myrinet reference in
    // one batch: the grid row-major, then the two references.
    std::vector<WanPoint> points;
    points.reserve(latencies_ms.size() * bandwidths_mbs.size() + 2);
    for (double lat : latencies_ms)
        for (double bw : bandwidths_mbs)
            points.push_back({bw, lat});
    points.push_back(predictor.tracedPoint());
    points.push_back(Predictor::allMyrinetPoint());
    const std::vector<Prediction> predicted = predictor.predict(points);

    out.tracePoint = predicted[predicted.size() - 2];
    out.allMyrinetS = predicted.back().runTimeS;
    const Prediction *p = predicted.data();
    for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
        for (std::size_t j = 0; j < bandwidths_mbs.size(); ++j, ++p) {
            out.runTimeS.values[i][j] = p->runTimeS;
            out.speedupFraction.values[i][j] =
                p->runTimeS > 0 ? out.allMyrinetS / p->runTimeS : 0;
            out.wanLatencyShareS.values[i][j] = p->wanLatencyS;
            out.wanBandwidthShareS.values[i][j] = p->wanBandwidthS;
        }
    }
    return out;
}

Accuracy
compareToSimulated(const core::Surface &predicted_s,
                   const core::Surface &simulated_s)
{
    TLI_ASSERT(predicted_s.latenciesMs == simulated_s.latenciesMs &&
                   predicted_s.bandwidthsMBs ==
                       simulated_s.bandwidthsMBs,
               "prediction and simulation grids differ");

    Accuracy a;
    a.relError = emptySurface("relative error (predicted - "
                              "simulated) / simulated",
                              predicted_s.bandwidthsMBs,
                              predicted_s.latenciesMs);
    std::vector<double> abs_errors;
    for (std::size_t i = 0; i < predicted_s.latenciesMs.size(); ++i) {
        for (std::size_t j = 0; j < predicted_s.bandwidthsMBs.size();
             ++j) {
            double sim = simulated_s.values[i][j];
            double err =
                (predicted_s.values[i][j] - sim) / sim;
            a.relError.values[i][j] = err;
            if (std::isfinite(err))
                abs_errors.push_back(std::fabs(err));
        }
    }
    a.cells = abs_errors.size();
    if (!abs_errors.empty()) {
        std::sort(abs_errors.begin(), abs_errors.end());
        a.medianAbsRelError = abs_errors[abs_errors.size() / 2];
        a.maxAbsRelError = abs_errors.back();
        double sum = 0;
        for (double e : abs_errors)
            sum += e;
        a.meanAbsRelError = sum / abs_errors.size();
    }
    return a;
}

void
writePredictionReport(std::ostream &os, const std::string &label,
                      const TraceGraph &graph,
                      const PredictionStudy &study,
                      const core::Surface *simulated_s,
                      const Accuracy *accuracy,
                      const PredictionTiming &timing)
{
    core::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "tli-prediction-v1");
    w.field("label", label);

    w.key("scenario");
    core::writeScenarioJson(w, graph.scenario);

    w.key("graph")
        .beginObject()
        .field("ranks", graph.ranks)
        .field("messages",
               static_cast<std::uint64_t>(graph.messages.size()))
        .field("inter_messages", graph.interMessages)
        .field("events",
               static_cast<std::uint64_t>(graph.events.size()))
        .field("compute_spans", graph.computeSpanCount)
        .field("compute_s", graph.computeSeconds)
        .field("baseline_run_time_s", graph.baselineRunTime)
        .endObject();

    w.key("grid").beginObject();
    w.key("latencies_ms").beginArray();
    for (double l : study.runTimeS.latenciesMs)
        w.value(l);
    w.endArray();
    w.key("bandwidths_mbs").beginArray();
    for (double b : study.runTimeS.bandwidthsMBs)
        w.value(b);
    w.endArray();
    w.endObject();

    w.field("all_myrinet_s", study.allMyrinetS);
    w.key("trace_point")
        .beginObject()
        .field("run_time_s", study.tracePoint.runTimeS)
        .field("d_runtime_d_latency", study.tracePoint.dLat)
        .field("d_runtime_d_inv_bandwidth_bytes",
               study.tracePoint.dInvBw)
        .field("wan_latency_s", study.tracePoint.wanLatencyS)
        .field("wan_bandwidth_s", study.tracePoint.wanBandwidthS)
        .endObject();

    w.key("predicted_run_time_s");
    writeSurfaceValues(w, study.runTimeS);
    w.key("predicted_speedup_fraction");
    writeSurfaceValues(w, study.speedupFraction);
    w.key("wan_latency_share_s");
    writeSurfaceValues(w, study.wanLatencyShareS);
    w.key("wan_bandwidth_share_s");
    writeSurfaceValues(w, study.wanBandwidthShareS);

    if (simulated_s && accuracy) {
        w.key("validation").beginObject();
        w.key("simulated_run_time_s");
        writeSurfaceValues(w, *simulated_s);
        w.key("rel_error");
        writeSurfaceValues(w, accuracy->relError);
        w.field("cells",
                static_cast<std::uint64_t>(accuracy->cells));
        w.field("median_abs_rel_error", accuracy->medianAbsRelError);
        w.field("mean_abs_rel_error", accuracy->meanAbsRelError);
        w.field("max_abs_rel_error", accuracy->maxAbsRelError);
        w.endObject();
    }

    w.key("timing")
        .beginObject()
        .field("trace_run_s", timing.traceRunS)
        .field("graph_build_s", timing.graphBuildS)
        .field("predict_s", timing.predictS)
        .field("simulate_s", timing.simulateS)
        .endObject();

    w.endObject();
}

} // namespace tli::analysis
