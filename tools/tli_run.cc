/**
 * @file
 * Command-line runner: execute any application variant on any machine
 * and network configuration and print the full measurement record.
 *
 *   tli_run --app=water --variant=opt --clusters=4 --procs=8 \
 *           --bw=1.0 --lat=10 [--jitter=0.5] [--scale=1] [--seed=42] \
 *           [--cache-dir=DIR] [--no-cache] [--jobs=N] \
 *           [--trace=run.trace.json] [--json=run.report.json]
 *
 * With --list, prints the registered variants and exits. With
 * --trace, writes Chrome trace-event JSON of the run (load it in
 * chrome://tracing or Perfetto); with --json, writes the
 * tli-run-report-v1 document.
 *
 * The run and its all-Myrinet reference go through the exec::Engine
 * as one batch: --jobs=2 overlaps them, and with --cache-dir a
 * previously-completed configuration is answered from the result
 * cache without simulating. Tracing forces the cache off — a cache
 * hit skips the simulation, so there would be no events to write.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/executor.h"
#include "core/run_report.h"
#include "core/scenario.h"
#include "net/config.h"
#include "options.h"
#include "sim/trace.h"

using namespace tli;

namespace {

void
usage(const char *argv0)
{
    std::printf("usage: %s [options]\n"
                "  --list                 print available app/variant "
                "pairs\n"
                "  --no-baseline          skip the all-Myrinet "
                "reference run\n",
                argv0);
    tools::ScenarioOptions::usage(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ScenarioOptions opts;
    bool list = false;
    bool compare_baseline = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            return 0;
        }
        if (std::strcmp(argv[i], "--list") == 0)
            list = true;
        else if (std::strcmp(argv[i], "--no-baseline") == 0)
            compare_baseline = false;
        else if (!opts.parseOne(argv[i]))
            return 2;
    }

    if (list) {
        for (auto &v : apps::allVariants())
            std::printf("%s\n", v.fullName().c_str());
        return 0;
    }

    if (std::string err = opts.finalize(); !err.empty()) {
        std::fprintf(stderr, "invalid scenario: %s\n", err.c_str());
        return 2;
    }

    std::optional<core::AppVariant> found =
        tools::lookupVariant(opts);
    if (!found)
        return 2;
    const core::AppVariant &variant = *found;
    std::printf("running %s on %s\n", variant.fullName().c_str(),
                opts.scenario.describe().c_str());

    // Observability: a Chrome trace stream and/or an aggregating
    // report sink, teed into the run when requested.
    std::ofstream trace_file;
    std::unique_ptr<sim::ChromeTraceSink> chrome;
    if (!opts.tracePath.empty()) {
        trace_file.open(opts.tracePath);
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.tracePath.c_str());
            return 1;
        }
        chrome = std::make_unique<sim::ChromeTraceSink>(trace_file);
    }
    core::ReportSink report;
    std::vector<sim::TraceSink *> sinks;
    if (chrome)
        sinks.push_back(chrome.get());
    if (!opts.jsonPath.empty())
        sinks.push_back(&report);
    sim::TeeSink tee(sinks);
    if (!sinks.empty())
        opts.scenario.trace = &tee;

    if (!sinks.empty() && opts.cacheEnabled()) {
        std::fprintf(stderr,
                     "note: --trace/--json request live events; "
                     "disabling the result cache for this run\n");
        opts.noCache = true;
    }
    tools::ExecSetup exec = tools::makeEngine(opts,
                                              /*progress=*/false);

    // One batch: the requested run plus (unless suppressed) its
    // all-Myrinet reference. The reference stays out of the
    // trace/report.
    std::vector<core::ExperimentJob> jobs;
    jobs.push_back({variant, opts.scenario, ""});
    const bool with_baseline =
        compare_baseline && !opts.scenario.allMyrinet;
    if (with_baseline) {
        core::Scenario base = opts.scenario.asAllMyrinet();
        base.trace = nullptr;
        jobs.push_back(
            {variant, base, variant.fullName() + " all-Myrinet"});
    }
    std::vector<core::RunResult> results = exec.engine->run(jobs);

    core::RunResult &r = results[0];
    std::printf("run time            %10.4f s\n", r.runTime);
    std::printf("verified            %10s\n", r.verified ? "yes" : "NO");
    std::printf("checksum            %10.6g\n", r.checksum);
    std::printf("intra messages      %10lu  (%.2f MByte)\n",
                static_cast<unsigned long>(r.traffic.intra.messages),
                r.traffic.intra.bytes / 1e6);
    std::printf("inter messages      %10lu  (%.2f MByte)\n",
                static_cast<unsigned long>(r.traffic.inter.messages),
                r.traffic.inter.bytes / 1e6);
    std::printf("inter volume        %10.3f MByte/s\n",
                r.interVolumeMBs());
    std::printf("inter messages/s    %10.0f\n", r.interMsgsPerSec());
    std::printf("wan transit         %10.4f s (summed)\n",
                r.traffic.wanTransit);
    for (std::size_t c = 0; c < r.traffic.interPerCluster.size(); ++c) {
        std::printf("  cluster %zu out     %10.3f MByte/s, %7.0f msg/s\n",
                    c, r.interVolumePerClusterMBs(static_cast<int>(c)),
                    r.interMsgsPerClusterPerSec(static_cast<int>(c)));
    }

    if (chrome) {
        chrome->close();
        std::printf("wrote %s\n", opts.tracePath.c_str());
    }
    if (!opts.jsonPath.empty()) {
        std::ofstream json_file(opts.jsonPath);
        if (!json_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.jsonPath.c_str());
            return 1;
        }
        core::writeRunReport(json_file, variant.fullName(),
                             opts.scenario, r, &report);
        std::printf("wrote %s\n", opts.jsonPath.c_str());
    }

    if (with_baseline) {
        const core::RunResult &base_r = results[1];
        std::printf("all-Myrinet time    %10.4f s\n", base_r.runTime);
        std::printf("relative speedup    %9.1f%%\n",
                    100.0 * base_r.runTime / r.runTime);
    }
    if (exec.cache) {
        const exec::BatchStats &batch = exec.engine->lastBatch();
        std::printf("cache               %10llu hit(s), %llu "
                    "stored (%s)\n",
                    static_cast<unsigned long long>(batch.cacheHits),
                    static_cast<unsigned long long>(batch.stored),
                    opts.cacheDir.c_str());
    }
    return r.verified ? 0 : 1;
}
