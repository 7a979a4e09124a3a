/**
 * @file
 * Auto-tuner behind magpie::Tuned: enumerate every algorithm variant
 * of each collective operation over a (bandwidth, latency) x message
 * size grid, record the winner per cell, and persist the decision
 * table as a tli-tuning-v1 JSON document for --tuning-table.
 *
 *   tli_tune --out=tuning.json [--clusters=4 --procs=8]
 *            [--bws=6.0,1.0,0.1] [--lats=0.5,10,100]
 *            [--elems=8,128,2048,32768] [--quick] [--verify]
 *            [--jobs=N] [--cache-dir=DIR] [--no-cache]
 *
 * Every timing cell runs through the exec::Engine as one batch, so
 * --jobs parallelizes the sweep and --cache-dir makes a re-tune with
 * unchanged inputs answer entirely from the result cache (the printed
 * "N simulated, M cache hits" line is what CI greps). With --verify,
 * the finished table is loaded back the way --tuning-table loads it
 * and every trained cell is re-run under tuned dispatch: the tuned
 * time must equal the winning variant's time exactly and never exceed
 * static MagPIe's.
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/collective_timing.h"
#include "core/executor.h"
#include "exec/tuning_io.h"
#include "magpie/tuning.h"
#include "net/config.h"
#include "options.h"

using namespace tli;
using magpie::Choice;
using magpie::CollectivePolicy;
using magpie::Op;
using magpie::TuningTable;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --out=FILE       decision-table destination (default "
        "tuning.json)\n"
        "  --bws=LIST       wide-area MByte/s grid (default "
        "6.0,1.0,0.1)\n"
        "  --lats=LIST      wide-area one-way ms grid (default "
        "0.5,10,100)\n"
        "  --elems=LIST     per-rank payload sizes in doubles "
        "(default 8,128,2048,32768)\n"
        "  --quick          1-point gap grid, 2 sizes (CI smoke)\n"
        "  --verify         re-run every trained cell under tuned "
        "dispatch and check it\n",
        argv0);
    tools::ScenarioOptions::usage(stdout);
}

/** The policy that times @p choice for @p op (all other ops flat). */
CollectivePolicy
policyFor(Op op, const Choice &choice)
{
    CollectivePolicy p;
    p.set(op, choice);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ScenarioOptions opts;
    std::string out = "tuning.json";
    std::vector<double> bws = {6.0, 1.0, 0.1};
    std::vector<double> lats = {0.5, 10, 100};
    std::vector<double> elemsList = {8, 128, 2048, 32768};
    bool quick = false;
    bool verify = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        }
        if (const char *v = tools::flagValue(arg, "--out="))
            out = v;
        else if (const char *v = tools::flagValue(arg, "--bws=")) {
            if (!tools::readNumberList(arg, v, bws))
                return 2;
        } else if (const char *v = tools::flagValue(arg, "--lats=")) {
            if (!tools::readNumberList(arg, v, lats))
                return 2;
        } else if (const char *v = tools::flagValue(arg, "--elems=")) {
            if (!tools::readNumberList(arg, v, elemsList))
                return 2;
            for (double e : elemsList) {
                if (e < 0 || e != std::floor(e) || e > INT_MAX) {
                    std::fprintf(stderr,
                                 "bad value %g in %s (must be a whole "
                                 "number >= 0)\n",
                                 e, arg);
                    return 2;
                }
            }
        } else if (std::strcmp(arg, "--quick") == 0)
            quick = true;
        else if (std::strcmp(arg, "--verify") == 0)
            verify = true;
        else if (!opts.parseOne(arg))
            return 2;
    }
    if (quick) {
        bws = {1.0};
        lats = {10};
        elemsList = {8, 2048};
    }
    if (std::string err = opts.finalize(); !err.empty()) {
        std::fprintf(stderr, "invalid scenario: %s\n", err.c_str());
        return 2;
    }
    const int clusters = opts.scenario.clusters;
    const int procs = opts.scenario.procsPerCluster;
    const int p = clusters * procs;

    std::vector<int> elems;
    for (double e : elemsList)
        elems.push_back(static_cast<int>(e));
    // Two sizes with one dispatch key would train two table cells of
    // one size for that operation.
    for (int opIdx = 0; opIdx < magpie::kOpCount; ++opIdx) {
        const Op op = static_cast<Op>(opIdx);
        if (!magpie::keyedBySize(op))
            continue;
        for (std::size_t s = 0; s < elems.size(); ++s) {
            for (std::size_t t = s + 1; t < elems.size(); ++t) {
                const std::uint64_t key =
                    bench::dispatchKeyBytes(op, p, elems[s]);
                if (key != bench::dispatchKeyBytes(op, p, elems[t]))
                    continue;
                std::fprintf(stderr,
                             "--elems values %d and %d share one %s "
                             "dispatch size (%llu bytes)\n",
                             elems[s], elems[t], magpie::opName(op),
                             static_cast<unsigned long long>(key));
                return 2;
            }
        }
    }

    // One engine job per (gap, op, size, candidate) cell. The job's
    // scenario carries the gap point (and the machine shape), so the
    // cache key changes whenever the timing inputs do; the candidate
    // lives in the variant string.
    struct GapPt
    {
        double bw, lat;
    };
    std::vector<GapPt> gaps;
    for (double bw : bws)
        for (double lat : lats)
            gaps.push_back({bw, lat});

    std::vector<core::ExperimentJob> jobs;
    for (const GapPt &gap : gaps) {
        core::Scenario sc = opts.scenario.with()
                                .wanBandwidth(gap.bw)
                                .wanLatency(gap.lat)
                                .build();
        for (int opIdx = 0; opIdx < magpie::kOpCount; ++opIdx) {
            const Op op = static_cast<Op>(opIdx);
            const std::string opname = magpie::opName(op);
            for (int e : elems) {
                for (const Choice &choice : magpie::tuningCandidates(op)) {
                    core::AppVariant variant;
                    variant.app =
                        "collective:" + opname + ":" +
                        std::to_string(e);
                    variant.variant = choice.spec();
                    const CollectivePolicy policy =
                        policyFor(op, choice);
                    variant.run =
                        [opname, policy, clusters, procs,
                         e](const core::Scenario &s) {
                            core::RunResult r;
                            r.runTime = bench::timeCollective(
                                opname, policy, s.fabricParams(),
                                s.clusters, s.procsPerCluster, e);
                            r.verified = true;
                            return r;
                        };
                    jobs.push_back({std::move(variant), sc, ""});
                }
            }
        }
    }

    tools::ExecSetup exec = tools::makeEngine(opts,
                                              /*progress=*/false);
    std::vector<core::RunResult> results = exec.engine->run(jobs);

    // Index the times back by (gap, op, elems, candidate): the jobs
    // vector was built in deterministic nested order, so a cursor
    // walks it back out the same way.
    std::size_t cursor = 0;
    TuningTable table;
    table.clusters = clusters;
    table.procsPerCluster = procs;
    // Per gap: time[op][candidate][sizeIdx].
    for (const GapPt &gap : gaps) {
        table.gaps.push_back({gap.bw, gap.lat});
        table.cells.emplace_back();
        auto &ops = table.cells.back();
        for (int opIdx = 0; opIdx < magpie::kOpCount; ++opIdx) {
            const Op op = static_cast<Op>(opIdx);
            const std::vector<Choice> cands = magpie::tuningCandidates(op);
            // times[sizeIdx][candIdx]
            std::vector<std::vector<double>> times(
                elems.size(), std::vector<double>(cands.size(), 0));
            for (std::size_t s = 0; s < elems.size(); ++s)
                for (std::size_t c = 0; c < cands.size(); ++c)
                    times[s][c] = results[cursor++].runTime;

            if (!magpie::keyedBySize(op)) {
                // One cell must serve every payload: the winner has
                // the lowest total, but is demoted back to MagPIe
                // unless it beats-or-matches MagPIe at every trained
                // size (candidate 0 is MagPIe) — the tuned table
                // never regresses a trained cell below static MagPIe.
                std::size_t best = 0;
                double bestTotal = 0;
                for (std::size_t s = 0; s < elems.size(); ++s)
                    bestTotal += times[s][0];
                for (std::size_t c = 1; c < cands.size(); ++c) {
                    double total = 0;
                    bool dominated = true;
                    for (std::size_t s = 0; s < elems.size(); ++s) {
                        total += times[s][c];
                        dominated =
                            dominated && times[s][c] <= times[s][0];
                    }
                    if (dominated && total < bestTotal) {
                        best = c;
                        bestTotal = total;
                    }
                }
                ops[opIdx].push_back({0, cands[best]});
            } else {
                for (std::size_t s = 0; s < elems.size(); ++s) {
                    std::size_t best = 0;
                    for (std::size_t c = 1; c < cands.size(); ++c)
                        if (times[s][c] < times[s][best])
                            best = c;
                    ops[opIdx].push_back(
                        {bench::dispatchKeyBytes(op, p, elems[s]),
                         cands[best]});
                }
            }
        }
    }
    table.finalize();
    exec::storeTuningTable(out, table);

    std::printf("tuned %dx%d over %zu gap point(s), %zu size(s)\n",
                clusters, procs, gaps.size(), elems.size());
    for (std::size_t g = 0; g < gaps.size(); ++g) {
        std::printf("gap bw=%g MB/s lat=%g ms:\n", gaps[g].bw,
                    gaps[g].lat);
        for (int opIdx = 0; opIdx < magpie::kOpCount; ++opIdx) {
            std::string line;
            for (const TuningTable::Cell &cell :
                 table.cells[g][opIdx]) {
                if (!line.empty())
                    line += " ";
                line += std::to_string(cell.sizeBytes) + "B=" +
                        cell.choice.spec();
            }
            std::printf("  %-14s %s\n",
                        magpie::opName(static_cast<Op>(opIdx)),
                        line.c_str());
        }
    }
    const exec::BatchStats &batch = exec.engine->lastBatch();
    std::printf("engine: %llu jobs, %llu simulated, %llu cache hits\n",
                static_cast<unsigned long long>(batch.jobs),
                static_cast<unsigned long long>(batch.simulated),
                static_cast<unsigned long long>(batch.cacheHits));
    std::printf("wrote %s (content hash %s)\n", out.c_str(),
                CollectivePolicy::tuned(
                    std::make_shared<TuningTable>(table))
                    .spec()
                    .c_str());

    if (!verify)
        return 0;

    // Verification pass: load the table back exactly the way
    // --tuning-table will, then re-run every trained cell under tuned
    // dispatch (serially — these runs must not pollute the engine's
    // batch statistics or the cache). The tuned run must reproduce
    // the winning variant's time exactly and never exceed MagPIe's.
    std::string load_err;
    std::shared_ptr<const TuningTable> loaded =
        exec::loadTuningTable(out, &load_err);
    if (!loaded) {
        std::fprintf(stderr, "verify: reload failed: %s\n",
                     load_err.c_str());
        return 1;
    }
    const CollectivePolicy tunedPolicy =
        CollectivePolicy::tuned(loaded);
    int checked = 0, failures = 0;
    cursor = 0;
    for (std::size_t g = 0; g < gaps.size(); ++g) {
        const CollectivePolicy bound =
            tunedPolicy.boundTo(gaps[g].bw, gaps[g].lat);
        if (bound.gapIndex() != static_cast<int>(g)) {
            std::fprintf(stderr,
                         "verify: gap %zu bound to index %d\n", g,
                         bound.gapIndex());
            return 1;
        }
        const net::FabricParams params =
            net::Profile::das(gaps[g].bw, gaps[g].lat).params();
        for (int opIdx = 0; opIdx < magpie::kOpCount; ++opIdx) {
            const Op op = static_cast<Op>(opIdx);
            const std::string opname = magpie::opName(op);
            const std::vector<Choice> cands = magpie::tuningCandidates(op);
            for (std::size_t s = 0; s < elems.size(); ++s) {
                std::vector<double> times(cands.size());
                for (std::size_t c = 0; c < cands.size(); ++c)
                    times[c] = results[cursor++].runTime;
                const std::uint64_t key =
                    bench::dispatchKeyBytes(op, p, elems[s]);
                const Choice &decided = loaded->choose(
                    static_cast<int>(g), op, key);
                double want = times[0];
                for (std::size_t c = 0; c < cands.size(); ++c)
                    if (cands[c] == decided)
                        want = times[c];
                const double tuned = bench::timeCollective(
                    opname, bound, params, clusters, procs,
                    elems[s]);
                ++checked;
                if (tuned != want || tuned > times[0]) {
                    ++failures;
                    std::fprintf(
                        stderr,
                        "verify: %s elems=%d gap=%zu: tuned %.9g, "
                        "decided %s at %.9g, magpie %.9g\n",
                        opname.c_str(), elems[s], g, tuned,
                        decided.spec().c_str(), want, times[0]);
                }
            }
        }
    }
    std::printf("verify: %d cell(s) checked, %d failure(s)\n",
                checked, failures);
    return failures == 0 ? 0 : 1;
}
