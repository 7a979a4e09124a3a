/**
 * @file
 * Small shared helpers for the benchmark executables: command-line
 * scale/grid options and banner printing.
 */

#ifndef TWOLAYER_BENCH_BENCH_UTIL_H_
#define TWOLAYER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "exec/engine.h"
#include "net/config.h"
#include "tools/options.h"

namespace tli::bench {

/**
 * The value a strict flag parser (tools::parseNumber,
 * tools::parseCount) returned, or exit 2 when it rejected the flag
 * after printing its one-line message.
 */
template <typename T>
T
orExit(std::optional<T> value)
{
    if (!value)
        std::exit(2);
    return *value;
}

/** Exit 2 with one line on stderr for a flag no parser knows. */
[[noreturn]] inline void
unknownFlag(const char *arg)
{
    std::fprintf(stderr, "unknown flag %s (see --help)\n", arg);
    std::exit(2);
}

/** Options common to every experiment binary. */
struct Options
{
    /** Workload scale relative to the calibrated defaults. */
    double scale = 1.0;
    /** Use a reduced parameter grid (smoke-test mode). */
    bool quick = false;
    /** Engine worker threads (0 = every hardware core). */
    int jobs = 0;

    /** Parse argv; a malformed value or unknown flag exits 2. */
    static Options
    parse(int argc, char **argv)
    {
        Options o;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (const char *v = tools::flagValue(arg, "--scale=")) {
                o.scale = orExit(tools::parseNumber<double>(arg, v));
                if (!(o.scale > 0)) {
                    std::fprintf(stderr, "bad value in %s (must be > 0)\n",
                                 arg);
                    std::exit(2);
                }
            } else if (const char *v = tools::flagValue(arg, "--jobs=")) {
                o.jobs = orExit(tools::parseCount<int>(arg, v));
            } else if (std::strcmp(arg, "--quick") == 0) {
                o.quick = true;
            } else if (std::strcmp(arg, "--help") == 0) {
                std::printf("usage: %s [--scale=X] [--jobs=N] "
                            "[--quick]\n",
                            argv[0]);
                std::exit(0);
            } else {
                unknownFlag(arg);
            }
        }
        return o;
    }

    /** The experiment engine the harness submits its runs through. */
    exec::Engine
    makeEngine() const
    {
        return exec::Engine({.jobs = jobs});
    }

    core::Scenario
    baseScenario() const
    {
        return core::ScenarioBuilder()
            .problemScale(scale * (quick ? 0.2 : 1.0))
            .build();
    }

    std::vector<double>
    bandwidthGrid() const
    {
        if (quick)
            return {6.3, 0.3, 0.03};
        return net::figureBandwidthsMBs();
    }

    std::vector<double>
    latencyGrid() const
    {
        if (quick)
            return {0.5, 30, 300};
        return net::figureLatenciesMs();
    }
};

inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n", what);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("==============================================="
                "=====================\n");
}

} // namespace tli::bench

#endif // TWOLAYER_BENCH_BENCH_UTIL_H_
