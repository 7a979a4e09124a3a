/**
 * @file
 * The repository benchmark binary. One workload per process:
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             [--work-dir=DIR] [--expect-digests=HEX,...]
 *             [--batches=N]
 *   perfbench --self-check
 *   perfbench --list-metrics
 *
 * Untraced (--trace=0) it repeats the workload's batch until S seconds
 * of batches have run and prints the end-to-end metrics. Traced
 * (--trace=1) it alternates untraced and traced batches on one
 * worker, then runs the unit-cost loops and the result-cache replay,
 * and prints the per-layer metrics. Either way the last stdout line is
 * one JSON object {"correct", "attempted", "failed", "metrics"}; the
 * exit status is 0 only if every output verified and every digest
 * matched.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/result_cache.h"
#include "exec/rss.h"
#include "magpie/policy.h"
#include "probes.h"
#include "unit_loops.h"
#include "workloads.h"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/** Scenario::seed default; digests.json records this seed's digests. */
constexpr std::uint64_t kDefaultSeed = 42;
/** Batches cycle through this many seeds derived from --seed, more
 *  than a run completes, so every batch of a run has fresh inputs. */
constexpr int kSeedCycle = 16;
/** setup_s is the median of samples taken before every batch, so
 *  they spread over the run as the batches do and the host's speed
 *  swings average out alike. A sample is the mean of back-to-back
 *  set-ups that together take at least kSetupSampleS, far longer than
 *  the clock's jitter. */
constexpr int kSetupSamplesPerBatch = 5;
constexpr double kSetupSampleS = 0.02;

/** Seed of batch @p b: the run's seed itself for the first batch. */
std::uint64_t
batchSeed(std::uint64_t seed, int b)
{
    return seed + static_cast<std::uint64_t>(b % kSeedCycle) *
                      0x9e3779b97f4a7c15ULL;
}

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},         {"runs_per_s", "1/s"},
        {"cells_per_s", "1/s"},   {"job_s.p50", "s"},
        {"job_s.p90", "s"},       {"cpu_s", "s"},
        {"sim_msgs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<std::string> &
appNames()
{
    static const std::vector<std::string> apps = {
        "water", "barnes", "tsp", "asp", "awari", "fft"};
    return apps;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"sim.events", "count"},
            {"sim.events_per_msg", "ratio"},
            {"sim.ns_per_event", "ns"},
            {"net.msgs.intra", "count"},
            {"net.msgs.inter", "count"},
            {"net.bytes.intra", "bytes"},
            {"net.bytes.inter", "bytes"},
            {"net.ns_per_send", "ns"},
            {"panda.msgs", "count"},
            {"panda.ns_per_msg", "ns"},
            {"magpie.calls", "count"},
        };
        for (int i = 0; i < tli::magpie::kOpCount; ++i)
            d.push_back({std::string("magpie.us_per_call.") +
                             tli::magpie::opName(
                                 static_cast<tli::magpie::Op>(i)),
                         "us"});
        d.push_back({"core.phase_spans", "count"});
        d.push_back({"core.compute_sim_s", "sim_s"});
        for (const std::string &app : appNames())
            d.push_back({"apps." + app + ".job_s", "s"});
        d.insert(d.end(), {{"exec.batch_s", "s"},
                           {"exec.overhead_s", "s"},
                           {"exec.parallel_eff", "ratio"},
                           {"exec.stored", "count"},
                           {"exec.store_us", "us"},
                           {"exec.load_us", "us"},
                           {"analysis.trace_s", "s"},
                           {"analysis.predict_s", "s"},
                           {"analysis.us_per_cell", "us"},
                           {"analysis.trace_msgs", "count"},
                           {"alloc.per_job", "count"},
                           {"alloc.bytes_per_job", "bytes"},
                           {"trace_overhead_frac", "ratio"},
                           {"model_residual_frac", "ratio"}});
        return d;
    }();
    return defs;
}

/** Measured values plus a note per metric (sample count, or the
 *  reason a metric is unmeasured on this workload). */
struct Report
{
    std::map<std::string, double> values;
    std::map<std::string, std::string> notes;

    void
    set(const std::string &name, double v, std::string note = "")
    {
        values[name] = v;
        if (!note.empty())
            notes[name] = std::move(note);
    }
    void
    unmeasured(const std::string &name, const std::string &reason)
    {
        set(name, 0, "unmeasured: " + reason);
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    std::vector<std::uint64_t> expectDigests;
    int batches = 0;
    /** Tiny batches and unit loops; set by the self-check only. */
    bool tiny = false;
};

/** Correctness bookkeeping shared by both run modes. */
struct Gate
{
    std::vector<std::uint64_t> expected;
    /** First digest seen per seed slot, for the repeat check. */
    std::map<int, std::uint64_t> seen;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Account one batch; a digest mismatch fails all its jobs. */
    void
    batch(int b, const BatchResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        if (r.failed)
            problems.push_back("batch " + std::to_string(b) + ": " +
                               std::to_string(r.failed) +
                               " unverified run(s)");
        const int slot = b % kSeedCycle;
        std::uint64_t want = 0;
        const char *source = nullptr;
        if (slot < static_cast<int>(expected.size())) {
            want = expected[slot];
            source = "recorded digest";
        } else if (auto it = seen.find(slot); it != seen.end()) {
            want = it->second;
            source = "earlier batch with the same seed";
        }
        seen.emplace(slot, r.digest);
        if (source && want != r.digest) {
            failed += r.attempted - r.failed;
            problems.push_back("batch " + std::to_string(b) + ": digest " +
                               hex64(r.digest) + " differs from " +
                               source + " " + hex64(want));
        }
    }
};

/**
 * An empty directory for a fresh result cache. Creating and deleting
 * it stays outside the timed set-up, where the filesystem's latency
 * would dominate: the set-up only opens it.
 */
std::string
freshDir(const Options &o, const std::string &tag)
{
    const fs::path p = fs::path(o.workDir) / (o.workload + "-" + tag);
    std::error_code ec;
    fs::remove_all(p, ec);
    fs::create_directories(p, ec);
    return p.string();
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

int
engineWorkers(const Options &o)
{
    if (o.trace || o.workload != "paper_sweep")
        return 1;
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/** Append one batch's setup_s samples for input seed @p seed. Every
 *  set-up of a sample opens the same empty directory, which stays
 *  empty because no batch runs in between. */
void
timeSetups(Workload &w, const Options &o, std::uint64_t seed, int workers,
           std::vector<double> &samples)
{
    const std::string dir = freshDir(o, "setup");
    for (int i = 0; i < kSetupSamplesPerBatch; ++i) {
        int n = 0;
        const double t0 = wallNow();
        double t = t0;
        for (; n == 0 || t - t0 < kSetupSampleS; ++n) {
            w.setup(seed, dir, workers, nullptr);
            t = wallNow();
        }
        samples.push_back((t - t0) / n);
    }
    removeDir(dir);
}

std::string
countNote(std::size_t n)
{
    return "n=" + std::to_string(n);
}

/** The untraced run: end-to-end metrics. */
void
runEndToEnd(Workload &w, const Options &o, Gate &gate, Report &rep)
{
    const int workers = engineWorkers(o);
    std::vector<double> setups;
    // Per-batch rates: a run reports their medians, because an input
    // seed can make one batch several times heavier than the rest.
    std::vector<double> jobs, runRate, cellRate, msgRate, cpuPerBatch;
    int b = 0;
    const double start = wallNow();
    for (;; ++b) {
        if (o.batches ? b >= o.batches
                      : b > 0 && wallNow() - start >= o.seconds)
            break;
        timeSetups(w, o, batchSeed(o.seed, b), workers, setups);
        const std::string dir = freshDir(o, "cache");
        w.setup(batchSeed(o.seed, b), dir, workers, nullptr);
        const double c0 = cpuNow();
        const double t0 = wallNow();
        BatchResult r = w.run();
        const double dt = wallNow() - t0;
        cpuPerBatch.push_back(cpuNow() - c0);
        removeDir(dir);
        gate.batch(b, r);
        runRate.push_back(r.desRuns / dt);
        cellRate.push_back(r.cells / dt);
        msgRate.push_back((r.intraMsgs + r.interMsgs) / dt);
        jobs.insert(jobs.end(), r.jobSeconds.begin(), r.jobSeconds.end());
        std::printf("batch %d seed %" PRIu64 ": %.3f s wall, %" PRIu64
                    " runs, %zu jobs, %d worker(s), digest %s\n",
                    b, batchSeed(o.seed, b), dt, r.desRuns,
                    r.jobSeconds.size(), workers, hex64(r.digest).c_str());
        if (r.workers > 1 && r.engineWallS > 0) {
            double busy = 0;
            for (double s : r.jobSeconds)
                busy += s;
            std::printf("  worker-pool efficiency %.3f (%d workers)\n",
                        busy / (r.workers * r.engineWallS), r.workers);
        }
    }
    const std::size_t n = jobs.size();
    const std::size_t beyond =
        n - static_cast<std::size_t>(std::ceil(0.9 * n));
    const std::string batches = "median of " + countNote(b) + " batches";
    rep.set("setup_s", median(setups),
            countNote(setups.size()) + " samples of >= " +
                std::to_string(kSetupSampleS) + " s of set-ups");
    rep.set("runs_per_s", median(runRate), batches);
    rep.set("cells_per_s", median(cellRate), batches);
    rep.set("job_s.p50", quantile(jobs, 0.5), countNote(n));
    rep.set("job_s.p90", quantile(jobs, 0.9),
            countNote(n) + ", " + std::to_string(beyond) + " beyond p90");
    rep.set("cpu_s", median(cpuPerBatch), batches);
    rep.set("sim_msgs_per_s", median(msgRate), batches);
    rep.set("peak_rss_mb", tli::exec::peakRssBytes() / 1048576.0);
    std::printf("failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                gate.attempted ? double(gate.failed) / gate.attempted : 0.0,
                gate.failed, gate.attempted);
}

/** Digest of the RunResult fields the result cache persists. */
std::uint64_t
cachedFieldsDigest(const tli::core::RunResult &r)
{
    Digest d;
    d.f64(r.runTime);
    d.f64(r.checksum);
    d.u64(r.verified);
    for (double c : r.computePerRank)
        d.f64(c);
    for (const tli::net::LinkStats *s :
         {&r.traffic.intra, &r.traffic.inter}) {
        d.u64(s->messages);
        d.u64(s->bytes);
        d.f64(s->busyTime);
    }
    d.f64(r.traffic.wanTransit);
    return d.value();
}

/** Timed ResultCache::store then ::load of every result of a batch. */
void
cacheReplay(const Options &o, const BatchResult &r, Gate &gate,
            Report &rep)
{
    const std::string dir = freshDir(o, "replay");
    tli::exec::ResultCache cache(dir);
    std::vector<std::string> keys;
    std::vector<double> storeUs, loadUs;
    for (const auto &[job, result] : r.results) {
        keys.push_back(tli::exec::jobFingerprint(job.variant, job.scenario));
        const double t0 = wallNow();
        cache.store(keys.back(), job, result);
        storeUs.push_back(1e6 * (wallNow() - t0));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const double t0 = wallNow();
        const auto loaded = cache.load(keys[i]);
        loadUs.push_back(1e6 * (wallNow() - t0));
        if (!loaded ||
            cachedFieldsDigest(*loaded) !=
                cachedFieldsDigest(r.results[i].second)) {
            gate.failed++;
            gate.problems.push_back("result cache did not return " +
                                    keys[i] + " bit-identically");
        }
    }
    gate.attempted += keys.size();
    removeDir(dir);
    rep.set("exec.store_us", median(storeUs), countNote(storeUs.size()));
    rep.set("exec.load_us", median(loadUs), countNote(loadUs.size()));
}

/** The traced run: per-layer metrics. */
void
runTraced(Workload &w, const Options &o, Gate &gate, Report &rep,
          SpanRecorder &spansOut)
{
    Probe probe;
    std::vector<double> ratio, batchS, traceS, predictS;
    std::map<std::string, std::vector<double>> appJobs;
    BatchResult first;
    double firstUntracedWall = 0;
    std::uint64_t firstMsgs = 0, firstPhases = 0;
    AllocCounts firstAllocs;
    // Every pair uses the run's own seed, after one untimed batch that
    // fills the applications' per-process sequential-reference memos,
    // so the untraced and traced halves of a pair do the same work.
    const std::uint64_t seed = o.seed;
    {
        const std::string dir = freshDir(o, "cache");
        w.setup(seed, dir, 1, nullptr);
        gate.batch(0, w.run());
        removeDir(dir);
    }
    // Each pair runs the batch twice, so pairs get half the run's time.
    int b = 0;
    const double start = wallNow();
    for (;; ++b) {
        if (o.batches ? b >= o.batches
                      : b > 0 && wallNow() - start >= o.seconds / 2)
            break;
        std::string dir = freshDir(o, "cache");
        w.setup(seed, dir, 1, nullptr);
        double t0 = wallNow();
        BatchResult plain = w.run();
        const double plainS = wallNow() - t0;
        removeDir(dir);
        gate.batch(0, plain);

        dir = freshDir(o, "cache");
        probe.sink = CountingSink();
        {
            SpanScope span(&probe.spans, "setup");
            w.setup(seed, dir, 1, &probe);
        }
        allocCountingStart();
        t0 = wallNow();
        BatchResult traced;
        {
            SpanScope span(&probe.spans, "batch " + o.workload);
            traced = w.run();
        }
        const double tracedS = wallNow() - t0;
        const AllocCounts allocs = allocCountingStop();
        removeDir(dir);
        if (traced.digest != plain.digest) {
            gate.failed += traced.attempted;
            gate.problems.push_back("traced batch digest " +
                                    hex64(traced.digest) +
                                    " differs from untraced " +
                                    hex64(plain.digest));
        }
        gate.attempted += traced.attempted;
        gate.failed += traced.failed;
        std::printf("pair %d seed %" PRIu64
                    ": untraced %.3f s, traced %.3f s, digest %s\n",
                    b, seed, plainS, tracedS, hex64(plain.digest).c_str());
        ratio.push_back(tracedS / plainS - 1);
        batchS.push_back(traced.engineWallS);
        traceS.push_back(traced.traceRunS);
        predictS.push_back(traced.predictS);
        for (const auto &[app, s] : traced.appJobSeconds)
            appJobs[app].insert(appJobs[app].end(), s.begin(), s.end());
        if (b == 0) {
            first = std::move(traced);
            firstUntracedWall = plainS;
            firstMsgs = probe.sink.messages;
            firstPhases = probe.sink.phases;
            firstAllocs = allocs;
        }
    }
    spansOut = std::move(probe.spans);

    const UnitCost simC = simEventCost(o.tiny ? 2000 : 200000, 5);
    const UnitCost netC = fabricSendCost(o.tiny ? 2000 : 100000, 5);
    const UnitCost pandaC = pandaUnicastCost(o.tiny ? 1024 : 65536, 5);
    const std::map<std::string, double> callUs =
        collectiveCallCosts(o.tiny ? 1 : 3);

    const std::string noEngine = "the workload calls no exec::Engine";
    const std::string noPredict = "the workload makes no prediction";
    const std::string inApp =
        "the application builds its Simulation inside "
        "AppVariant::run; only collective_sweep builds its own";
    const bool ownSim = o.workload == "collective_sweep";
    const bool engine = first.workers > 0;
    const bool predicts = o.workload == "predict_dense";

    if (ownSim) {
        rep.set("sim.events", first.simEvents);
        rep.set("sim.events_per_msg",
                firstMsgs ? double(first.simEvents) / firstMsgs : 0);
    } else {
        rep.unmeasured("sim.events", inApp);
        rep.unmeasured("sim.events_per_msg", inApp);
    }
    rep.set("sim.ns_per_event", simC.nsPerOp, "unit loop");
    rep.set("net.msgs.intra", first.intraMsgs);
    rep.set("net.msgs.inter", first.interMsgs);
    rep.set("net.bytes.intra", first.intraBytes);
    rep.set("net.bytes.inter", first.interBytes);
    rep.set("net.ns_per_send", netC.nsPerOp, "unit loop");
    rep.set("panda.msgs", firstMsgs);
    rep.set("panda.ns_per_msg", pandaC.nsPerOp, "unit loop");
    if (ownSim)
        rep.set("magpie.calls", first.magpieCalls);
    else
        rep.unmeasured("magpie.calls",
                       "application collective calls happen inside "
                       "AppVariant::run");
    for (const auto &[op, us] : callUs)
        rep.set("magpie.us_per_call." + op, us, "unit loop");
    rep.set("core.phase_spans", firstPhases);
    rep.set("core.compute_sim_s", first.computeSimS);
    for (const std::string &app : appNames()) {
        const std::string name = "apps." + app + ".job_s";
        if (auto it = appJobs.find(app); it != appJobs.end())
            rep.set(name, median(it->second), countNote(it->second.size()));
        else
            rep.unmeasured(name, "the workload runs no " + app + " job");
    }
    if (engine) {
        double busy = 0;
        for (double s : first.jobSeconds)
            busy += s;
        const double pool = first.workers * first.engineWallS;
        rep.set("exec.batch_s", median(batchS), countNote(batchS.size()));
        rep.set("exec.overhead_s", pool - busy, "first batch");
        rep.set("exec.parallel_eff", pool > 0 ? busy / pool : 0,
                "first batch, " + std::to_string(first.workers) +
                    " worker(s)");
        rep.set("exec.stored", first.engineStored);
    } else {
        for (const char *m : {"exec.batch_s", "exec.overhead_s",
                              "exec.parallel_eff", "exec.stored"})
            rep.unmeasured(m, noEngine);
    }
    cacheReplay(o, first, gate, rep);
    if (predicts) {
        rep.set("analysis.trace_s", median(traceS), countNote(traceS.size()));
        rep.set("analysis.predict_s", median(predictS),
                countNote(predictS.size()));
        rep.set("analysis.us_per_cell",
                first.cells ? 1e6 * first.predictS / first.cells : 0,
                "first batch");
        rep.set("analysis.trace_msgs", first.traceMessages);
    } else {
        for (const char *m : {"analysis.trace_s", "analysis.predict_s",
                              "analysis.us_per_cell", "analysis.trace_msgs"})
            rep.unmeasured(m, noPredict);
    }
    const double jobsN = std::max<double>(1, first.attempted);
    rep.set("alloc.per_job", firstAllocs.calls / jobsN);
    rep.set("alloc.bytes_per_job", firstAllocs.bytes / jobsN);
    rep.set("trace_overhead_frac", median(ratio), countNote(ratio.size()));

    // wall ~ panda messages x unicast cost (which includes their fabric
    // sends and events) + the remaining events x event cost, where the
    // benchmark can count events.
    const double evPerMsg =
        pandaC.ops ? double(pandaC.events) / pandaC.ops : 0;
    double modelNs = firstMsgs * pandaC.nsPerOp;
    if (ownSim)
        modelNs += std::max(0.0, first.simEvents - firstMsgs * evPerMsg) *
                   simC.nsPerOp;
    rep.set("model_residual_frac", 1 - 1e-9 * modelNs / firstUntracedWall,
            "first batch");
}

void
printReport(const Report &rep, const std::vector<MetricDef> &defs,
            const Gate &gate)
{
    for (const MetricDef &m : defs) {
        auto it = rep.notes.find(m.name);
        std::printf("%-34s %16.8g %-6s %s\n", m.name.c_str(),
                    rep.values.at(m.name), m.unit.c_str(),
                    it == rep.notes.end() ? "" : it->second.c_str());
    }
    for (const std::string &p : gate.problems)
        std::printf("FAILED: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                gate.failed == 0 ? "true" : "false",
                std::max<std::uint64_t>(gate.attempted, 1), gate.failed);
    bool firstMetric = true;
    for (const MetricDef &m : defs) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    firstMetric ? "" : ", ", m.name.c_str(),
                    rep.values.at(m.name), m.unit.c_str());
        firstMetric = false;
    }
    std::printf("}}\n");
}

/** Whether every metric of @p defs was measured (programming check). */
bool
complete(const Report &rep, const std::vector<MetricDef> &defs)
{
    bool ok = true;
    for (const MetricDef &m : defs) {
        if (!rep.values.count(m.name) || m.unit.empty()) {
            std::fprintf(stderr, "metric %s was not produced\n",
                         m.name.c_str());
            ok = false;
        } else if (!std::isfinite(rep.values.at(m.name))) {
            std::fprintf(stderr, "metric %s is not finite\n",
                         m.name.c_str());
            ok = false;
        }
    }
    return ok;
}

/** Run one workload in one mode; returns the process exit status. */
int
runWorkload(const Options &o, Report &rep, Gate &gate)
{
    std::unique_ptr<Workload> w = makeWorkload(o.workload, o.tiny);
    if (!w) {
        std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
        return 2;
    }
    std::error_code ec;
    fs::create_directories(o.workDir, ec);
    gate.expected = o.expectDigests;
    std::printf("workload %s, seed %" PRIu64 ", %s, hardware_concurrency "
                "%u\n",
                o.workload.c_str(), o.seed, o.trace ? "traced" : "untraced",
                std::thread::hardware_concurrency());
    if (!o.trace) {
        runEndToEnd(*w, o, gate, rep);
        return 0;
    }
    SpanRecorder spans;
    runTraced(*w, o, gate, rep, spans);
    const std::vector<double> self = spans.selfTimes();
    std::map<std::string, std::pair<int, double>> byName;
    for (std::size_t i = 0; i < self.size(); ++i) {
        std::string name = spans.spans()[i].name;
        auto &[count, total] = byName[name.substr(0, name.find(' '))];
        count++;
        total += self[i];
    }
    for (const auto &[name, ct] : byName)
        std::printf("span self time %-20s %8d spans %12.6f s\n",
                    name.c_str(), ct.first, ct.second);
    const std::string path = (fs::path(o.workDir) /
                              ("spans-" + o.workload + "-" +
                               std::to_string(o.seed) + ".json"))
                                 .string();
    if (spans.write(path))
        std::printf("spans written to %s\n", path.c_str());
    return 0;
}

bool
parseArgs(int argc, char **argv, Options &o, std::string &mode)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string v;
        if (const auto eq = a.find('='); eq != std::string::npos) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (a != "--self-check" && a != "--list-metrics") {
            if (i + 1 >= argc)
                return false;
            v = argv[++i];
        }
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--batches") {
            o.batches = std::atoi(v.c_str());
        } else if (a == "--expect-digests") {
            std::size_t pos = 0;
            while (pos < v.size()) {
                const std::size_t comma = v.find(',', pos);
                const std::string h = v.substr(pos, comma - pos);
                o.expectDigests.push_back(
                    std::strtoull(h.c_str(), nullptr, 16));
                pos = comma == std::string::npos ? v.size() : comma + 1;
            }
        } else if (a == "--self-check" || a == "--list-metrics") {
            mode = a;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return true;
}

/**
 * The benchmark's own tests, at a tiny size: every metric printed with
 * a unit, percentiles with sample counts, a perturbed result tripping
 * the digest gate, and the counting allocator counting.
 */
int
selfCheck(const Options &base)
{
    int failures = 0;
    auto check = [&failures](bool ok, const std::string &what) {
        std::printf("self-check %s: %s\n", ok ? "ok  " : "FAIL",
                    what.c_str());
        failures += ok ? 0 : 1;
    };

    // Stored through a volatile pointer so the allocation is not elided.
    static std::vector<int> *volatile escaped = nullptr;
    allocCountingStart();
    escaped = new std::vector<int>(1000, 1);
    const AllocCounts counted = allocCountingStop();
    check(counted.calls >= 2 && counted.bytes >= 1000 * sizeof(int),
          "counting allocator counted " + std::to_string(counted.calls) +
              " allocations, " + std::to_string(counted.bytes) + " bytes");
    delete escaped;

    for (const std::string &name : workloadNames()) {
        for (bool traced : {false, true}) {
            Options o = base;
            o.workload = name;
            o.tiny = true;
            o.trace = traced;
            o.batches = 1;
            Report rep;
            Gate gate;
            const int rc = runWorkload(o, rep, gate);
            const auto &defs = traced ? perLayerMetrics() : endToEndMetrics();
            check(rc == 0 && complete(rep, defs) && gate.failed == 0 &&
                      gate.attempted > 0,
                  name + (traced ? " traced" : " untraced") +
                      ": every metric produced with a unit, all verified");
            if (!traced) {
                for (const char *p : {"job_s.p50", "job_s.p90"}) {
                    auto it = rep.notes.find(p);
                    check(it != rep.notes.end() &&
                              it->second.rfind("n=", 0) == 0 &&
                              it->second != "n=0",
                          name + " " + p + " carries its sample count (" +
                              (it == rep.notes.end() ? "" : it->second) +
                              ")");
                }
                // Perturb the first recorded digest by one bit: the gate
                // must fail every job of the batch.
                std::unique_ptr<Workload> w = makeWorkload(name, true);
                const std::string dir = freshDir(o, "selfcheck");
                w->setup(kDefaultSeed, dir, 1, nullptr);
                BatchResult r = w->run();
                removeDir(dir);
                Gate good, bad;
                good.expected = {r.digest};
                bad.expected = {r.digest ^ 1};
                good.batch(0, r);
                bad.batch(0, r);
                check(good.failed == 0 && bad.failed == r.attempted &&
                          !bad.problems.empty(),
                      name + ": a perturbed digest fails all " +
                          std::to_string(r.attempted) + " jobs");
                // A perturbed simulated output changes the digest.
                if (!r.results.empty()) {
                    Digest d1, d2;
                    tli::core::RunResult res = r.results.front().second;
                    d1.result(res);
                    res.runTime = std::nextafter(res.runTime, 1e300);
                    d2.result(res);
                    check(d1.value() != d2.value(),
                          name + ": one ulp of run time changes the digest");
                }
            }
        }
    }
    std::printf("self-check: %d failure(s)\n", failures);
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string mode;
    if (!parseArgs(argc, argv, o, mode)) {
        std::fprintf(stderr, "usage: perfbench --workload=NAME --seed=N "
                             "--seconds=S --trace=0|1 [--work-dir=DIR] "
                             "[--expect-digests=HEX,...] [--batches=N] "
                             "| --self-check | --list-metrics\n");
        return 2;
    }
    if (mode == "--list-metrics") {
        for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
            for (const MetricDef &m : *defs)
                std::printf("%s %s %s\n",
                            defs == &endToEndMetrics() ? "end_to_end"
                                                       : "per_layer",
                            m.name.c_str(), m.unit.c_str());
        return 0;
    }
    if (mode == "--self-check")
        return selfCheck(o);

    Report rep;
    Gate gate;
    const int rc = runWorkload(o, rep, gate);
    if (rc != 0)
        return rc;
    const auto &defs = o.trace ? perLayerMetrics() : endToEndMetrics();
    if (!complete(rep, defs))
        return 3;
    printReport(rep, defs, gate);
    std::fflush(stdout);
    return gate.failed == 0 ? 0 : 1;
}
