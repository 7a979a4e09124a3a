/**
 * @file
 * The scaling study: events/sec and peak RSS of one simulation as the
 * machine grows 128 -> 1k -> 10k -> 100k ranks. Not a paper figure —
 * the paper stops at 64 processors — but the capacity curve of the
 * simulator those figures run on, and the regression harness for the
 * sparse ordering state and pooled-message work.
 *
 * Each rank count is measured in a forked child (peak RSS is a
 * process-lifetime watermark; only a fresh process can attribute it to
 * one size). `--ranks=CxP` runs one size in-process instead, and
 * `--assert-rss-mb=N` turns that into a pass/fail gate for CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/rss.h"
#include "exec/scale_workload.h"

namespace tli {
namespace {

struct Shape
{
    int clusters;
    int procs;
};

int
runSweep(bool quick)
{
    bench::banner("scaling: events/sec and peak RSS vs machine size",
                  "simulator capacity study (beyond the paper's 64 "
                  "processors)");

    std::vector<Shape> shapes{{4, 32}, {32, 32}, {32, 320}};
    if (!quick)
        shapes.push_back({100, 1024});

    std::printf("%8s %10s %12s %12s %10s %12s %12s\n", "ranks",
                "events", "events/sec", "peak_rss_mb", "pairs",
                "ordering_kb", "digest");

    bool ok = true;
    for (const Shape &shape : shapes) {
        exec::ScaleConfig config{.clusters = shape.clusters,
                                 .procsPerCluster = shape.procs};
        exec::ScaleChildResult child = exec::runScaleChild(config);
        if (!child.ok) {
            std::printf("%8d  (child run failed)\n",
                        config.ranks());
            ok = false;
            continue;
        }
        const exec::ScaleResult &r = child.result;
        std::printf("%8d %10llu %12.0f %12.1f %10llu %12.1f "
                    "%012llx\n",
                    r.ranks,
                    static_cast<unsigned long long>(r.events),
                    r.eventsPerSec(),
                    static_cast<double>(child.peakRssBytes) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(r.activePairs),
                    static_cast<double>(r.orderingBytes) / 1024.0,
                    static_cast<unsigned long long>(r.digest));
        if (r.delivered != r.sent) {
            std::printf("  FAIL: delivered %llu != sent %llu\n",
                        static_cast<unsigned long long>(r.delivered),
                        static_cast<unsigned long long>(r.sent));
            ok = false;
        }
    }
    return ok ? 0 : 1;
}

int
runSingle(int clusters, int procs, double assert_rss_mb)
{
    exec::ScaleConfig config{.clusters = clusters,
                             .procsPerCluster = procs};
    const exec::ScaleResult r = exec::runScaleWorkload(config);
    const std::int64_t peak = exec::peakRssBytes();
    const double peakMb = static_cast<double>(peak) /
                          (1024.0 * 1024.0);
    std::printf("ranks %d: %llu events, %.0f events/sec, peak rss "
                "%.1f MiB, %llu active pairs, digest %012llx\n",
                r.ranks, static_cast<unsigned long long>(r.events),
                r.eventsPerSec(), peakMb,
                static_cast<unsigned long long>(r.activePairs),
                static_cast<unsigned long long>(r.digest));
    if (r.delivered != r.sent) {
        std::printf("FAIL: delivered %llu != sent %llu\n",
                    static_cast<unsigned long long>(r.delivered),
                    static_cast<unsigned long long>(r.sent));
        return 1;
    }
    if (assert_rss_mb > 0 && peakMb > assert_rss_mb) {
        std::printf("FAIL: peak rss %.1f MiB exceeds the %.1f MiB "
                    "budget\n",
                    peakMb, assert_rss_mb);
        return 1;
    }
    if (assert_rss_mb > 0)
        std::printf("peak rss within the %.1f MiB budget\n",
                    assert_rss_mb);
    return 0;
}

} // namespace
} // namespace tli

int
main(int argc, char **argv)
{
    // Child re-exec entry for the fork-isolated sweep measurements.
    if (std::optional<int> code =
            tli::exec::scaleChildMain(argc, argv))
        return *code;

    bool quick = false;
    int clusters = 0;
    int procs = 0;
    double assertRssMb = 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--quick") == 0) {
            quick = true;
        } else if (const char *v = tli::tools::flagValue(arg, "--ranks=")) {
            int used = 0;
            if (std::sscanf(v, "%dx%d%n", &clusters, &procs, &used) != 2 ||
                v[used] != '\0' || clusters <= 0 || procs <= 0) {
                std::fprintf(stderr, "bad --ranks=%s (want CxP, both > 0)\n",
                             v);
                return 2;
            }
        } else if (const char *v =
                       tli::tools::flagValue(arg, "--assert-rss-mb=")) {
            assertRssMb = tli::bench::numberOrExit<double>(arg, v);
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf("usage: %s [--quick] [--ranks=CxP "
                        "[--assert-rss-mb=N]]\n",
                        argv[0]);
            return 0;
        } else {
            tli::bench::unknownFlag(arg);
        }
    }

    if (clusters > 0)
        return tli::runSingle(clusters, procs, assertRssMb);
    return tli::runSweep(quick);
}
