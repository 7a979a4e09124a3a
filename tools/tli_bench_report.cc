/**
 * @file
 * Perf-trajectory reporter: measures the simulator's hot paths — raw
 * event-queue throughput (against an embedded copy of the seed
 * `std::priority_queue<std::function>` implementation as a fixed
 * baseline), coroutine event dispatch, fabric/panda messaging, and
 * the exec engine's sweep throughput (a mixed-application grid batch
 * at 1, 4 and 8 workers plus a warm-cache replay) — and emits a
 * machine-readable BENCH_<label>.json with events/sec, messages/sec,
 * and peak RSS. Each PR appends a snapshot, so the repository carries
 * its own performance history.
 *
 * Methodology: every metric is best-of-R repetitions measured with a
 * monotonic clock inside one process, so the new/baseline event-queue
 * ratio is insensitive to machine load between runs.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/sensitivity.h"
#include "apps/registry.h"
#include "bench/collective_timing.h"
#include "bench/seed_event_queue.h"
#include "core/gap_study.h"
#include "core/json.h"
#include "exec/engine.h"
#include "exec/result_cache.h"
#include "exec/rss.h"
#include "exec/scale_workload.h"
#include "magpie/communicator.h"
#include "net/config.h"
#include "options.h"
#include "panda/panda.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/trace.h"

using namespace tli;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Best-of-@p reps wall time of @p body, in seconds. */
template <typename Body>
double
bestOf(int reps, Body &&body)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        body();
        double dt = secondsSince(t0);
        if (dt < best)
            best = dt;
    }
    return best;
}

/**
 * The event-queue workload: push @p n events at pseudo-random times,
 * then drain. The callback captures 20 bytes (two pointers and an
 * int), the shape of the simulator's real delivery closures — small
 * enough for EventFn's inline buffer, too big for libstdc++'s
 * std::function SBO, which is exactly the allocation the rewrite
 * removes.
 */
struct Payload
{
    std::uint64_t *sink;
    const int *base;
    int index;
};

template <typename Queue>
void
queueWorkload(Queue &q, int n, std::uint64_t &sink, const int &base)
{
    for (int i = 0; i < n; ++i) {
        Payload p{&sink, &base, i};
        q.push(static_cast<double>((i * 7919) % 1000),
               [p] { *p.sink += p.index + *p.base; });
    }
    while (!q.empty())
        q.pop().action();
}

/**
 * Measure the new queue and the seed baseline on the same workload.
 * The repetitions are interleaved pairwise so transient machine load
 * hits both sides alike and the reported ratio stays stable.
 * @return {new events/sec, baseline events/sec}.
 */
std::pair<double, double>
measureEventQueue(int n, int reps)
{
    std::uint64_t sink = 0;
    const int base = 3;
    double best_new = 1e300;
    double best_seed = 1e300;
    for (int r = 0; r < reps; ++r) {
        double dt = bestOf(1, [&] {
            sim::EventQueue q;
            queueWorkload(q, n, sink, base);
        });
        best_new = std::min(best_new, dt);
        dt = bestOf(1, [&] {
            bench::SeedEventQueue q;
            queueWorkload(q, n, sink, base);
        });
        best_seed = std::min(best_seed, dt);
    }
    if (sink == 0)
        std::fprintf(stderr, "unexpected zero sink\n");
    return {n / best_new, n / best_seed};
}

double
measureSleepLoop(int n, int reps)
{
    double best = bestOf(reps, [&] {
        sim::Simulation sim;
        auto proc = [&sim, n]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i)
                co_await sim.sleep(1e-3);
        };
        sim.spawn(proc());
        sim.run();
    });
    return n / best;
}

/**
 * The cheapest possible sink: counts events and discards them. Used
 * to price the instrumentation itself (branch + virtual call), with
 * no formatting or I/O on top.
 */
class CountingSink : public sim::TraceSink
{
  public:
    void
    onMessage(const sim::MessageTrace &m) override
    {
        (void)m;
        ++events_;
    }

    std::uint64_t events() const { return events_; }

  private:
    std::uint64_t events_ = 0;
};

/**
 * Unicast messages/sec, optionally with a trace sink attached. The
 * untraced figure is the hot path every simulation pays; the traced
 * one prices the observability layer's per-message cost.
 */
double
measurePandaUnicast(int n, int reps, sim::TraceSink *sink = nullptr)
{
    double best = bestOf(reps, [&] {
        sim::Simulation sim;
        if (sink)
            sim.setTrace(sink);
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, net::Profile::das(6.0, 0.5).params());
        panda::Panda panda(sim, fabric);
        auto receiver = [&]() -> sim::Task<void> {
            for (int i = 0; i < n; ++i)
                (void)co_await panda.recv(31, 1);
        };
        sim.spawn(receiver());
        for (int i = 0; i < n; ++i)
            panda.send(0, 31, 1, 64, i);
        sim.run();
    });
    return n / best;
}

double
measurePandaBroadcast(int rounds, int reps)
{
    const int ranks = 32;
    double best = bestOf(reps, [&] {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, net::Profile::das(6.0, 0.5).params());
        panda::Panda panda(sim, fabric);
        auto receiver = [&](Rank self) -> sim::Task<void> {
            for (int i = 0; i < rounds; ++i)
                (void)co_await panda.recv(self, 7);
        };
        for (Rank r = 1; r < ranks; ++r)
            sim.spawn(receiver(r));
        auto sender = [&]() -> sim::Task<void> {
            for (int i = 0; i < rounds; ++i) {
                panda.broadcast(0, 7, 256, i);
                co_await sim.sleep(1e-3);
            }
        };
        sim.spawn(sender());
        sim.run();
    });
    // One broadcast delivers to every other rank.
    return static_cast<double>(rounds) * (ranks - 1) / best;
}

/**
 * The engine workload: every application's best variant over a small
 * bandwidth x latency grid (plus its all-Myrinet baseline) on the
 * paper's 4x8 machine — the shape of a real Figure 3/4 battery, with
 * run times varied enough to exercise work sharing.
 */
std::vector<core::ExperimentJob>
sweepJobs(double scale)
{
    std::vector<core::ExperimentJob> jobs;
    for (const core::AppVariant &v : apps::bestVariants()) {
        core::Scenario base =
            core::ScenarioBuilder().problemScale(scale).build();
        jobs.push_back({v, base.asAllMyrinet(), ""});
        for (double lat : {0.5, 30.0}) {
            for (double bw : {6.3, 0.3}) {
                jobs.push_back({v,
                                base.with()
                                    .wanBandwidth(bw)
                                    .wanLatency(lat)
                                    .build(),
                                ""});
            }
        }
    }
    return jobs;
}

struct SweepTimings
{
    std::size_t batchJobs = 0;
    double serialSeconds = 0;
    double jobs4Seconds = 0;
    double jobs8Seconds = 0;
    double replaySeconds = 0;
    std::uint64_t replayHits = 0;
    std::uint64_t replaySimulated = 0;
};

/**
 * Wall-clock of the same batch at 1, 4 and 8 workers, plus a
 * warm-cache replay (cache filled by an untimed run, then the timed
 * replay must answer every job from disk).
 */
SweepTimings
measureSweep(double scale, int reps)
{
    SweepTimings t;
    const std::vector<core::ExperimentJob> jobs = sweepJobs(scale);
    t.batchJobs = jobs.size();

    auto timeAt = [&](int workers) {
        exec::Engine engine({.jobs = workers});
        return bestOf(reps, [&] { engine.run(jobs); });
    };
    t.serialSeconds = timeAt(1);
    t.jobs4Seconds = timeAt(4);
    t.jobs8Seconds = timeAt(8);

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("tli_bench_cache." + std::to_string(getpid())))
            .string();
    std::filesystem::remove_all(dir);
    exec::ResultCache cache(dir);
    exec::Engine fill({.jobs = 4, .cache = &cache});
    fill.run(jobs);
    exec::Engine replay({.jobs = 4, .cache = &cache});
    t.replaySeconds = bestOf(reps, [&] { replay.run(jobs); });
    t.replayHits = replay.lastBatch().cacheHits;
    t.replaySimulated = replay.lastBatch().simulated;
    std::filesystem::remove_all(dir);
    return t;
}

/** One row of the rank-count scaling curve. */
struct ScaleRow
{
    exec::ScaleResult result;
    std::int64_t peakRssBytes = 0;
    bool isolated = false;
};

/**
 * The scaling curve: the synthetic exchange at growing rank counts,
 * each measured in a forked child so its peak RSS is its own. Falls
 * back to in-process measurement (RSS then reflects the whole
 * reporter, flagged isolated=false) where fork/exec is unavailable.
 */
std::vector<ScaleRow>
measureScaling(bool full)
{
    std::vector<exec::ScaleConfig> sizes{
        {.clusters = 4, .procsPerCluster = 32},
        {.clusters = 32, .procsPerCluster = 32},
        {.clusters = 32, .procsPerCluster = 320},
    };
    if (full)
        sizes.push_back({.clusters = 100, .procsPerCluster = 1024});

    std::vector<ScaleRow> rows;
    for (const exec::ScaleConfig &config : sizes) {
        ScaleRow row;
        exec::ScaleChildResult child = exec::runScaleChild(config);
        if (child.ok) {
            row.result = child.result;
            row.peakRssBytes = child.peakRssBytes;
            row.isolated = true;
        } else {
            row.result = exec::runScaleWorkload(config);
            row.peakRssBytes = exec::peakRssBytes();
        }
        rows.push_back(row);
    }
    return rows;
}

struct PredictionTimings
{
    std::size_t cells = 0;
    double analysisSeconds = 0; ///< traced run + graph + replay
    double sweepSeconds = 0;    ///< the same grid through the DES
    double maxAbsRelError = 0;
};

/**
 * Analysis-vs-sweep wall clock: one traced FFT run replayed over the
 * paper's full bandwidth x latency grid against simulating every
 * cell (serial engine, no cache — the honest cost a cold sweep
 * pays). The full grid is the point: the analysis pays one traced
 * run regardless of grid size, so the speedup is what prediction
 * actually buys over the sweep it replaces. Single-shot rather than
 * best-of: both sides are dominated by whole simulations.
 */
PredictionTimings
measurePrediction(double scale)
{
    PredictionTimings t;
    core::AppVariant variant = apps::findVariant("fft", "unopt");
    core::Scenario scenario =
        core::ScenarioBuilder().problemScale(scale).build();
    const std::vector<double> bws = net::figureBandwidthsMBs();
    const std::vector<double> lats = net::figureLatenciesMs();
    t.cells = bws.size() * lats.size();

    auto t0 = std::chrono::steady_clock::now();
    analysis::GraphTraceSink sink;
    core::Scenario traced = scenario;
    traced.trace = &sink;
    (void)variant.run(traced);
    analysis::TraceGraph graph =
        analysis::TraceGraph::build(sink, scenario);
    analysis::PredictionStudy study =
        analysis::predictStudy(graph, bws, lats);
    t.analysisSeconds = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    core::GapStudy des(variant, scenario);
    core::Surface simulated = des.runTimeSurface(bws, lats);
    t.sweepSeconds = secondsSince(t0);
    t.maxAbsRelError =
        analysis::compareToSimulated(study.runTimeS, simulated)
            .maxAbsRelError;
    return t;
}

/** One cell of the tuned-vs-static-MagPIe comparison. */
struct TunedCollectiveRow
{
    std::string op;
    int elems = 0;
    double magpieSimS = 0; ///< static MagPIe completion (virtual s)
    double bestSimS = 0;   ///< winning variant's completion
    std::string bestSpec;  ///< the variant the tuner would pick
};

/**
 * What auto-tuning buys per collective: time every variant the tuner
 * enumerates (the tli_tune candidate set) on the paper's machine at a
 * mid-gap WAN point and report the winner against static MagPIe.
 * These are virtual (simulated) seconds — deterministic, so the
 * deltas are exact properties of the protocols, not of this host.
 */
std::vector<TunedCollectiveRow>
measureTunedCollectives(int clusters, int procs)
{
    const net::FabricParams params =
        net::Profile::das(1.0, 10.0).params();
    std::vector<TunedCollectiveRow> rows;
    for (const char *name :
         {"barrier", "bcast", "reduce", "allreduce", "gather"}) {
        const magpie::Op op = *magpie::parseOp(name);
        std::vector<magpie::Choice> candidates = {
            magpie::Choice::magpie()};
        if (op != magpie::Op::bcast)
            candidates.push_back(magpie::Choice::flat());
        if (magpie::segmentedSupported(op)) {
            candidates.push_back(magpie::Choice::segmented(1024));
            candidates.push_back(magpie::Choice::segmented(8192));
        }
        for (int elems : {8, 2048}) {
            TunedCollectiveRow row;
            row.op = name;
            row.elems = op == magpie::Op::barrier ? 0 : elems;
            for (const magpie::Choice &c : candidates) {
                magpie::CollectivePolicy policy =
                    magpie::CollectivePolicy::magpie();
                policy.set(op, c);
                const double t = bench::timeCollective(
                    name, policy, params, clusters, procs,
                    row.elems);
                if (c == magpie::Choice::magpie())
                    row.magpieSimS = t;
                if (row.bestSpec.empty() || t < row.bestSimS) {
                    row.bestSimS = t;
                    row.bestSpec = c.spec();
                }
            }
            rows.push_back(row);
            if (op == magpie::Op::barrier)
                break; // size-independent: one row is enough
        }
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    // Child re-exec entry for the fork-isolated scaling rows.
    if (std::optional<int> code = exec::scaleChildMain(argc, argv))
        return *code;

    std::string label = "pr1";
    std::string out;
    int reps = 5;
    int queue_events = 1 << 16;
    int sleep_events = 100000;
    int unicast_msgs = 8192;
    int broadcast_rounds = 256;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = tools::flagValue(argv[i], "--label=")) {
            label = v;
        } else if (const char *v = tools::flagValue(argv[i],
                                                    "--out=")) {
            out = v;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            reps = 2;
            queue_events = 1 << 14;
            sleep_events = 20000;
            unicast_msgs = 2048;
            broadcast_rounds = 64;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--label=NAME] [--out=FILE.json] "
                        "[--quick]\n",
                        argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    if (out.empty())
        out = "BENCH_" + label + ".json";

    std::fprintf(stderr, "measuring event queue (new vs seed)...\n");
    auto [q_new, q_seed] = measureEventQueue(queue_events, reps);
    std::fprintf(stderr, "measuring coroutine sleep loop...\n");
    double sleep_eps = measureSleepLoop(sleep_events, reps);
    std::fprintf(stderr, "measuring panda unicast...\n");
    double uni_mps = measurePandaUnicast(unicast_msgs, reps);
    std::fprintf(stderr, "measuring panda unicast (traced)...\n");
    CountingSink counter;
    double uni_traced_mps =
        measurePandaUnicast(unicast_msgs, reps, &counter);
    std::fprintf(stderr, "measuring panda broadcast...\n");
    double bcast_mps = measurePandaBroadcast(broadcast_rounds, reps);
    std::fprintf(stderr,
                 "measuring sweep engine (1/4/8 workers + cache "
                 "replay)...\n");
    SweepTimings sweep = measureSweep(reps <= 2 ? 0.3 : 1.0, reps);
    std::fprintf(stderr, "measuring scaling curve...\n");
    std::vector<ScaleRow> scaling = measureScaling(reps > 2);
    std::fprintf(stderr,
                 "measuring analytical prediction vs DES sweep...\n");
    PredictionTimings pred =
        measurePrediction(reps <= 2 ? 0.25 : 0.5);
    std::fprintf(stderr,
                 "measuring tuned vs static MagPIe collectives...\n");
    std::vector<TunedCollectiveRow> tunedRows =
        measureTunedCollectives(4, 8);
    const std::int64_t rss = exec::peakRssBytes();

    // A parallel "speedup" measured with fewer hardware cores than
    // workers is just contention noise; publish the timings but mark
    // the speedups not applicable rather than report sub-1.0 figures.
    const auto hw = static_cast<std::int64_t>(
        std::thread::hardware_concurrency());
    const bool speedup4Valid = hw >= 4;
    const bool speedup8Valid = hw >= 8;

    std::ofstream f(out);
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    {
        core::JsonWriter w(f);
        w.beginObject();
        w.field("schema", 7);
        w.field("label", label);
        w.key("event_queue").beginObject();
        w.field("workload_events", queue_events);
        w.field("events_per_sec", std::round(q_new));
        w.field("seed_baseline_events_per_sec", std::round(q_seed));
        w.field("speedup_vs_seed", q_new / q_seed);
        w.endObject();
        w.key("simulation").beginObject();
        w.field("sleep_loop_events_per_sec", std::round(sleep_eps));
        w.endObject();
        w.key("panda").beginObject();
        w.field("unicast_messages_per_sec", std::round(uni_mps));
        w.field("broadcast_deliveries_per_sec",
                std::round(bcast_mps));
        w.endObject();
        w.key("trace").beginObject();
        w.field("untraced_messages_per_sec", std::round(uni_mps));
        w.field("traced_messages_per_sec",
                std::round(uni_traced_mps));
        w.field("traced_overhead_fraction",
                uni_mps > 0 ? 1.0 - uni_traced_mps / uni_mps : 0.0);
        w.endObject();
        w.key("sweep").beginObject();
        w.field("batch_jobs",
                static_cast<std::int64_t>(sweep.batchJobs));
        w.field("hardware_concurrency", hw);
        w.field("jobs1_seconds", sweep.serialSeconds);
        w.field("jobs4_seconds", sweep.jobs4Seconds);
        w.field("jobs8_seconds", sweep.jobs8Seconds);
        w.field("speedup_jobs4_applicable", speedup4Valid);
        if (speedup4Valid)
            w.field("speedup_jobs4",
                    sweep.serialSeconds / sweep.jobs4Seconds);
        w.field("speedup_jobs8_applicable", speedup8Valid);
        if (speedup8Valid)
            w.field("speedup_jobs8",
                    sweep.serialSeconds / sweep.jobs8Seconds);
        w.field("cache_replay_seconds", sweep.replaySeconds);
        w.field("cache_replay_hits",
                static_cast<std::int64_t>(sweep.replayHits));
        w.field("cache_replay_simulated",
                static_cast<std::int64_t>(sweep.replaySimulated));
        w.endObject();
        w.key("scaling").beginArray();
        for (const ScaleRow &row : scaling) {
            const exec::ScaleResult &r = row.result;
            w.beginObject();
            w.field("ranks", r.ranks);
            w.field("events", static_cast<std::int64_t>(r.events));
            w.field("events_per_sec", std::round(r.eventsPerSec()));
            w.field("peak_rss_bytes", row.peakRssBytes);
            w.field("rss_isolated", row.isolated);
            w.field("active_pairs",
                    static_cast<std::int64_t>(r.activePairs));
            w.field("ordering_bytes",
                    static_cast<std::int64_t>(r.orderingBytes));
            w.field("digest", r.digest);
            w.endObject();
        }
        w.endArray();
        w.key("tuned_collectives").beginArray();
        for (const TunedCollectiveRow &row : tunedRows) {
            w.beginObject();
            w.field("op", row.op);
            w.field("elems", row.elems);
            w.field("magpie_sim_s", row.magpieSimS);
            w.field("best_sim_s", row.bestSimS);
            w.field("best_variant", row.bestSpec);
            w.field("improvement_fraction",
                    row.magpieSimS > 0
                        ? 1.0 - row.bestSimS / row.magpieSimS
                        : 0.0);
            w.endObject();
        }
        w.endArray();
        w.key("prediction").beginObject();
        w.field("grid_cells",
                static_cast<std::int64_t>(pred.cells));
        w.field("analysis_seconds", pred.analysisSeconds);
        w.field("des_sweep_seconds", pred.sweepSeconds);
        w.field("speedup", pred.analysisSeconds > 0
                               ? pred.sweepSeconds /
                                     pred.analysisSeconds
                               : 0.0);
        w.field("max_abs_rel_error", pred.maxAbsRelError);
        w.endObject();
        w.field("peak_rss_bytes", rss);
        w.endObject();
    }

    std::printf("event queue:      %11.0f events/s (seed baseline "
                "%.0f, speedup %.2fx)\n",
                q_new, q_seed, q_new / q_seed);
    std::printf("sleep loop:       %11.0f events/s\n", sleep_eps);
    std::printf("panda unicast:    %11.0f messages/s\n", uni_mps);
    std::printf("  traced:         %11.0f messages/s (%.1f%% "
                "overhead)\n",
                uni_traced_mps,
                100.0 * (1.0 - uni_traced_mps / uni_mps));
    std::printf("panda broadcast:  %11.0f deliveries/s\n", bcast_mps);
    char speed4[32];
    char speed8[32];
    if (speedup4Valid)
        std::snprintf(speed4, sizeof(speed4), "%.2fx",
                      sweep.serialSeconds / sweep.jobs4Seconds);
    else
        std::snprintf(speed4, sizeof(speed4), "n/a: %lld cores",
                      static_cast<long long>(hw));
    if (speedup8Valid)
        std::snprintf(speed8, sizeof(speed8), "%.2fx",
                      sweep.serialSeconds / sweep.jobs8Seconds);
    else
        std::snprintf(speed8, sizeof(speed8), "n/a: %lld cores",
                      static_cast<long long>(hw));
    std::printf("sweep (%zu jobs): %8.3fs at 1 worker, %.3fs at 4 "
                "(%s), %.3fs at 8 (%s)\n",
                sweep.batchJobs, sweep.serialSeconds,
                sweep.jobs4Seconds, speed4, sweep.jobs8Seconds,
                speed8);
    std::printf("  cache replay:   %10.3fs (%llu hits, %llu "
                "simulated)\n",
                sweep.replaySeconds,
                static_cast<unsigned long long>(sweep.replayHits),
                static_cast<unsigned long long>(
                    sweep.replaySimulated));
    for (const ScaleRow &row : scaling) {
        std::printf("scaling %6d ranks: %9.0f events/s, peak RSS "
                    "%7.1f MiB%s\n",
                    row.result.ranks, row.result.eventsPerSec(),
                    static_cast<double>(row.peakRssBytes) /
                        (1024.0 * 1024.0),
                    row.isolated ? "" : " (not isolated)");
    }
    for (const TunedCollectiveRow &row : tunedRows) {
        std::printf("tuned %-10s %5d elems: magpie %.4fs, best %s "
                    "%.4fs (%.1f%% better)\n",
                    row.op.c_str(), row.elems, row.magpieSimS,
                    row.bestSpec.c_str(), row.bestSimS,
                    100.0 * (row.magpieSimS > 0
                                 ? 1.0 - row.bestSimS / row.magpieSimS
                                 : 0.0));
    }
    std::printf("prediction (%zu cells): %.3fs analysis vs %.3fs DES "
                "sweep (%.1fx, max err %.2f%%)\n",
                pred.cells, pred.analysisSeconds, pred.sweepSeconds,
                pred.analysisSeconds > 0
                    ? pred.sweepSeconds / pred.analysisSeconds
                    : 0.0,
                100 * pred.maxAbsRelError);
    std::printf("peak RSS:         %11lld bytes\n",
                static_cast<long long>(rss));
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
