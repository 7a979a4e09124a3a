/**
 * @file
 * Grid-sweep tool: run one application variant over a bandwidth x
 * latency grid and emit CSV (the machine-readable form of a Figure 3
 * panel) on stdout.
 *
 *   tli_sweep --app=water --variant=opt > water_opt.csv
 *   tli_sweep --app=fft --variant=unopt --metric=commtime \
 *             --bws=6.3,0.95,0.1 --lats=0.5,10,100 \
 *             [--jobs=N] [--cache-dir=DIR] [--no-cache] \
 *             [--json=surface.json] [--trace=sweep.trace.json]
 *
 * Grid cells are independent simulations, so the sweep fans them out
 * over an exec::Engine worker pool (--jobs, default every hardware
 * core) and, with --cache-dir, skips any cell whose fingerprint is
 * already cached — an interrupted sweep resumes where it stopped and
 * an extended grid only pays for the new cells. Output is
 * bit-identical at any worker count.
 *
 * With --json the surface is additionally written as a
 * tli-surface-v1 document; with --trace every cell's run lands in one
 * Chrome trace file, each run on its own process track (sharing one
 * trace sink across the batch demotes it to a single worker so the
 * event stream stays deterministic).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/gap_study.h"
#include "net/config.h"
#include "options.h"
#include "sim/trace.h"

using namespace tli;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options] > out.csv\n"
        "  --bws=LIST --lats=LIST      comma-separated grids "
        "(default: the paper's)\n"
        "  --metric=speedup|commtime   surface to emit (default "
        "speedup)\n",
        argv0);
    tools::ScenarioOptions::usage(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ScenarioOptions opts;
    std::string metric = "speedup";
    std::vector<double> bws = net::figureBandwidthsMBs();
    std::vector<double> lats = net::figureLatenciesMs();

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        }
        if (const char *v = tools::flagValue(arg, "--metric="))
            metric = v;
        else if (const char *v = tools::flagValue(arg, "--bws=")) {
            if (!tools::readNumberList(arg, v, bws))
                return 2;
        } else if (const char *v = tools::flagValue(arg, "--lats=")) {
            if (!tools::readNumberList(arg, v, lats))
                return 2;
        } else if (!opts.parseOne(arg))
            return 2;
    }

    if (std::string err = opts.finalize(); !err.empty()) {
        std::fprintf(stderr, "invalid scenario: %s\n", err.c_str());
        return 2;
    }

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
        opts.scenario.trace = chrome.get();
    }

    std::optional<core::AppVariant> variant = tools::lookupVariant(opts);
    if (!variant)
        return 2;
    tools::ExecSetup exec = tools::makeEngine(opts,
                                              /*progress=*/true);
    core::GapStudy study(*variant, opts.scenario, exec.engine.get());
    core::Surface surface;
    if (metric == "speedup")
        surface = study.speedupSurface(bws, lats);
    else if (metric == "commtime")
        surface = study.commTimeSurface(bws, lats);
    else {
        std::fprintf(stderr, "unknown metric %s\n", metric.c_str());
        return 2;
    }
    if (chrome) {
        chrome->close();
        std::fprintf(stderr, "# wrote %s\n", opts.tracePath.c_str());
    }
    const exec::BatchStats &batch = exec.engine->lastBatch();
    std::fprintf(stderr,
                 "# %llu runs: %llu simulated, %llu cache hits, "
                 "%.2fs\n",
                 static_cast<unsigned long long>(batch.jobs),
                 static_cast<unsigned long long>(batch.simulated),
                 static_cast<unsigned long long>(batch.cacheHits),
                 batch.elapsedSeconds);
    std::fprintf(stderr, "# %s\n", surface.title.c_str());
    surface.writeCsv(std::cout);
    if (!opts.jsonPath.empty()) {
        std::ofstream json_file(opts.jsonPath);
        if (!json_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.jsonPath.c_str());
            return 1;
        }
        surface.writeJson(json_file);
        std::fprintf(stderr, "# wrote %s\n", opts.jsonPath.c_str());
    }
    return 0;
}
