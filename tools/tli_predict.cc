/**
 * @file
 * Analytical sensitivity prediction: trace one application run at the
 * scenario's wide-area point, build its dependency graph, and predict
 * the full (bandwidth x latency) gap grid without re-simulating —
 * a 40+-cell DES sweep collapses into one traced run plus
 * milliseconds of critical-path replay (see DESIGN.md §14).
 *
 *   tli_predict --app=fft --variant=unopt
 *   tli_predict --app=water --variant=opt --bws=6.3,0.3 --lats=0.5,30 \
 *               --validate --cache-dir=.cache --json=prediction.json
 *
 * With --validate the same grid is also simulated through the
 * execution engine (cache-aware: a warm cache replays in
 * milliseconds) and the per-cell relative error is reported;
 * --assert-max-rel-err=X turns that into an exit status for CI. The
 * traced run stays bit-identical to an untraced one — the sink only
 * observes.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sensitivity.h"
#include "core/gap_study.h"
#include "net/config.h"
#include "options.h"
#include "sim/trace.h"

using namespace tli;

namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --bws=LIST --lats=LIST      comma-separated prediction "
        "grids (default: the paper's)\n"
        "  --validate                  also simulate the grid and "
        "report per-cell error\n"
        "  --assert-max-rel-err=X      exit 1 unless every validated "
        "cell is within X (implies --validate)\n",
        argv0);
    tools::ScenarioOptions::usage(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ScenarioOptions opts;
    std::vector<double> bws = net::figureBandwidthsMBs();
    std::vector<double> lats = net::figureLatenciesMs();
    bool validate = false;
    double max_rel_err = -1;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        }
        if (const char *v = tools::flagValue(arg, "--bws=")) {
            if (!tools::readGridList(arg, v, tools::GridAxis::bandwidth,
                                     bws))
                return 2;
        } else if (const char *v = tools::flagValue(arg, "--lats=")) {
            if (!tools::readGridList(arg, v, tools::GridAxis::latency,
                                     lats))
                return 2;
        } else if (std::strcmp(arg, "--validate") == 0)
            validate = true;
        else if (const char *v =
                     tools::flagValue(arg, "--assert-max-rel-err=")) {
            std::optional<double> x = tools::parseNumber<double>(arg, v);
            if (!x)
                return 2;
            max_rel_err = *x;
            validate = true;
        } else if (!opts.parseOne(arg))
            return 2;
    }

    if (std::string err = opts.finalize(); !err.empty()) {
        std::fprintf(stderr, "invalid scenario: %s\n", err.c_str());
        return 2;
    }
    if (std::string err =
            analysis::TraceGraph::validityError(opts.scenario);
        !err.empty()) {
        std::fprintf(stderr, "cannot predict from this scenario: %s\n",
                     err.c_str());
        return 2;
    }

    std::optional<core::AppVariant> found = tools::lookupVariant(opts);
    if (!found)
        return 2;
    const core::AppVariant &variant = *found;

    // One traced run at the scenario's own wide-area point. The graph
    // sink records; an optional --trace file gets the Chrome view of
    // the same stream through a tee.
    analysis::GraphTraceSink sink;
    std::ofstream trace_file;
    std::unique_ptr<sim::ChromeTraceSink> chrome;
    std::unique_ptr<sim::TeeSink> tee;
    core::Scenario traced = opts.scenario;
    traced.trace = &sink;
    if (!opts.tracePath.empty()) {
        trace_file.open(opts.tracePath);
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.tracePath.c_str());
            return 1;
        }
        chrome = std::make_unique<sim::ChromeTraceSink>(trace_file);
        tee = std::make_unique<sim::TeeSink>(
            std::vector<sim::TraceSink *>{&sink, chrome.get()});
        traced.trace = tee.get();
    }

    analysis::PredictionTiming timing;
    double t0 = now();
    core::RunResult run = variant.run(traced);
    timing.traceRunS = now() - t0;
    if (chrome)
        chrome->close();
    if (!run.verified) {
        std::fprintf(stderr, "traced run failed verification on %s\n",
                     traced.describe().c_str());
        return 1;
    }

    t0 = now();
    analysis::TraceGraph graph =
        analysis::TraceGraph::build(sink, opts.scenario);
    timing.graphBuildS = now() - t0;

    t0 = now();
    analysis::PredictionStudy study =
        analysis::predictStudy(graph, bws, lats);
    timing.predictS = now() - t0;

    std::printf("%s traced at bw=%g MB/s lat=%g ms: run time %.6g s "
                "(%llu messages, %llu events)\n",
                variant.fullName().c_str(),
                opts.scenario.wanBandwidthMBs,
                opts.scenario.wanLatencyMs, run.runTime,
                static_cast<unsigned long long>(graph.messages.size()),
                static_cast<unsigned long long>(graph.events.size()));
    std::printf("trace-point check: predicted %.6g s (%.3g%% off); "
                "critical path carries %.4g s WAN latency, %.4g s "
                "WAN serialization\n\n",
                study.tracePoint.runTimeS,
                100 * (study.tracePoint.runTimeS - run.runTime) /
                    run.runTime,
                study.tracePoint.wanLatencyS,
                study.tracePoint.wanBandwidthS);

    std::printf("predicted run time (s):\n");
    study.runTimeS.print(std::cout, "", 4);
    std::printf("\npredicted fraction of all-Myrinet speedup "
                "(all-Myrinet %.6g s):\n",
                study.allMyrinetS);
    study.speedupFraction.printPercent(std::cout);

    std::unique_ptr<core::Surface> simulated;
    std::unique_ptr<analysis::Accuracy> accuracy;
    int status = 0;
    if (validate) {
        tools::ExecSetup exec = tools::makeEngine(opts,
                                                  /*progress=*/true);
        core::GapStudy des(variant, graph.scenario,
                           exec.engine.get());
        t0 = now();
        simulated = std::make_unique<core::Surface>(
            des.runTimeSurface(bws, lats));
        timing.simulateS = now() - t0;
        accuracy = std::make_unique<analysis::Accuracy>(
            analysis::compareToSimulated(study.runTimeS,
                                         *simulated));
        std::printf("\nsimulated run time (s), %zu cells in %.2f s "
                    "wall:\n",
                    bws.size() * lats.size(), timing.simulateS);
        simulated->print(std::cout, "", 4);
        std::printf("\nrelative error (predicted vs simulated):\n");
        accuracy->relError.printPercent(std::cout);
        std::printf("\nabs rel error: median %.2f%%, mean %.2f%%, "
                    "max %.2f%% over %zu cells\n",
                    100 * accuracy->medianAbsRelError,
                    100 * accuracy->meanAbsRelError,
                    100 * accuracy->maxAbsRelError, accuracy->cells);
        double analysis_wall = timing.traceRunS + timing.graphBuildS +
                               timing.predictS;
        if (analysis_wall > 0 && timing.simulateS > 0) {
            std::printf("analysis %.3f s vs DES sweep %.3f s: "
                        "%.1fx\n",
                        analysis_wall, timing.simulateS,
                        timing.simulateS / analysis_wall);
        }
        if (max_rel_err >= 0 &&
            accuracy->maxAbsRelError > max_rel_err) {
            std::fprintf(stderr,
                         "FAIL: max abs rel error %.4f exceeds "
                         "--assert-max-rel-err=%.4f\n",
                         accuracy->maxAbsRelError, max_rel_err);
            status = 1;
        }
    }

    if (!opts.jsonPath.empty()) {
        std::ofstream json_file(opts.jsonPath);
        if (!json_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.jsonPath.c_str());
            return 1;
        }
        analysis::writePredictionReport(
            json_file, variant.fullName(), graph, study,
            simulated.get(), accuracy.get(), timing);
        std::fprintf(stderr, "# wrote %s\n", opts.jsonPath.c_str());
    }
    return status;
}
