#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "analysis/sensitivity.h"
#include "apps/registry.h"
#include "bench/collective_timing.h"
#include "magpie/communicator.h"
#include "core/gap_study.h"
#include "exec/engine.h"
#include "exec/result_cache.h"
#include "sim/logging.h"

namespace perfbench {

namespace {

using namespace tli;

/** The paper's machine: four clusters of eight, sequential engine. */
core::Scenario
paperMachine(std::uint64_t seed)
{
    return core::ScenarioBuilder()
        .clusters(4)
        .procsPerCluster(8)
        .seed(seed)
        .simThreads(1)
        .build();
}

/** Count one DES run's outcome and traffic into @p out. */
void
addRun(BatchResult &out, const core::RunResult &r)
{
    out.attempted++;
    out.desRuns++;
    out.failed += r.verified ? 0 : 1;
    out.intraMsgs += r.traffic.intra.messages;
    out.interMsgs += r.traffic.inter.messages;
    out.intraBytes += r.traffic.intra.bytes;
    out.interBytes += r.traffic.inter.bytes;
    for (double c : r.computePerRank)
        out.computeSimS += c;
}

/**
 * Every job's result as the benchmark saw it, from any worker thread.
 * The spans pointer is set only for traced batches, which run on one
 * worker inline on the calling thread.
 */
class JobLog
{
  public:
    struct Record
    {
        std::string app;
        std::string variant;
        core::Scenario scenario;
        core::RunResult result;
        double seconds = 0;
        std::uint64_t events = 0;
    };

    void
    add(Record r)
    {
        r.scenario.trace = nullptr;
        std::lock_guard<std::mutex> lock(mu_);
        records_.push_back(std::move(r));
    }

    /** Fold the batch's records into @p out, in fingerprint order so
     *  the digest is independent of worker scheduling. */
    void
    drainInto(BatchResult &out, Digest &digest, bool appJobs)
    {
        std::vector<std::pair<std::string, Record>> keyed;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (Record &r : records_) {
                core::AppVariant id{r.app, r.variant, {}};
                keyed.emplace_back(exec::jobFingerprint(id, r.scenario),
                                   std::move(r));
            }
            records_.clear();
        }
        std::sort(keyed.begin(), keyed.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (auto &[key, r] : keyed) {
            digest.str(key);
            digest.result(r.result);
            addRun(out, r.result);
            out.jobSeconds.push_back(r.seconds);
            if (appJobs)
                out.appJobSeconds[r.app].push_back(r.seconds);
            out.simEvents += r.events;
            out.results.push_back(
                {core::ExperimentJob{{r.app, r.variant, {}}, r.scenario,
                                     ""},
                 std::move(r.result)});
        }
    }

    SpanRecorder *spans = nullptr;

  private:
    std::mutex mu_;
    std::vector<Record> records_;
};

/**
 * The job wrapper around AppVariant::run: times the run and records
 * its result. App and variant names are kept, so job fingerprints and
 * result-cache keys are those of the unwrapped variant.
 */
core::AppVariant
timed(const core::AppVariant &inner, JobLog *log)
{
    core::AppVariant w = inner;
    w.run = [run = inner.run, app = inner.app, variant = inner.variant,
             log](const core::Scenario &s) {
        SpanScope span(log->spans, "job " + app);
        const double t0 = wallNow();
        core::RunResult r = run(s);
        const double dt = wallNow() - t0;
        log->add({app, variant, s, r, dt, 0});
        return r;
    };
    return w;
}

void
addEngineBatch(BatchResult &out, const exec::Engine &engine)
{
    const exec::BatchStats &b = engine.lastBatch();
    out.workers = exec::Engine::resolveJobs(engine.config().jobs);
    out.engineWallS += b.elapsedSeconds;
    out.engineStored += b.stored;
}

/**
 * paper_sweep: the Figure-3 experiment. Every application's best
 * variant over a gap grid spanning the paper's bandwidth and latency
 * axes plus its all-Myrinet reference, each app one GapStudy batch
 * through a worker-pool Engine into a fresh result cache. A batch
 * sweeps two input seeds: how much work an input makes varies by
 * seed (TSP's branch-and-bound most of all), and a run averages over
 * every seed its batches cover.
 */
class PaperSweep : public Workload
{
  public:
    explicit PaperSweep(bool tiny)
    {
        if (tiny) {
            variants_ = {apps::findVariant("water", "opt"),
                         apps::findVariant("fft", "unopt")};
            bws_ = {6.3, 0.03};
            lats_ = {0.5};
        } else {
            variants_ = apps::bestVariants();
            bws_ = {6.3, 0.3, 0.03};
            lats_ = {0.5, 10, 300};
            seedsPerBatch_ = 2;
        }
    }

    void
    setup(std::uint64_t seed, const std::string &cacheDir, int workers,
          Probe *probe) override
    {
        studies_.clear();
        engine_.reset();
        cache_ = std::make_unique<exec::ResultCache>(cacheDir);
        engine_ = std::make_unique<exec::Engine>(
            exec::EngineConfig{workers, cache_.get(), false});
        log_.spans = probe ? &probe->spans : nullptr;
        for (int i = 0; i < seedsPerBatch_; ++i) {
            const core::Scenario base =
                paperMachine(seed + i * 0x632be59bd9b4e019ULL)
                    .with()
                    .trace(probe ? &probe->sink : nullptr)
                    .build();
            for (const core::AppVariant &v : variants_)
                studies_.emplace_back(timed(v, &log_), base,
                                      engine_.get());
        }
    }

    BatchResult
    run() override
    {
        BatchResult out;
        // The surfaces GapStudy returns, then every job's own result.
        Digest digest;
        for (const core::GapStudy &study : studies_) {
            SpanScope span(log_.spans,
                           "Engine::run " + study.variant().app);
            double allMyrinetS = 0;
            const core::Surface s =
                study.runTimeSurface(bws_, lats_, &allMyrinetS);
            out.cells += s.latenciesMs.size() * s.bandwidthsMBs.size();
            addEngineBatch(out, *engine_);
            digest.f64(allMyrinetS);
            digest.u64(s.values.size());
            for (const std::vector<double> &row : s.values) {
                digest.u64(row.size());
                for (double x : row)
                    digest.f64(x);
            }
        }
        log_.drainInto(out, digest, /*appJobs=*/true);
        out.digest = digest.value();
        return out;
    }

  private:
    std::vector<core::AppVariant> variants_;
    std::vector<double> bws_, lats_;
    int seedsPerBatch_ = 1;
    JobLog log_;
    std::unique_ptr<exec::ResultCache> cache_;
    std::unique_ptr<exec::Engine> engine_;
    std::vector<core::GapStudy> studies_;
};

/**
 * The variants tli_tune enumerates for one operation: MagPIe, flat
 * (except bcast, whose tuned decision is the root's alone) and the
 * segmented ladder where the operation has one.
 */
std::vector<magpie::Choice>
tunerCandidates(magpie::Op op)
{
    std::vector<magpie::Choice> c{magpie::Choice::magpie()};
    if (op != magpie::Op::bcast)
        c.push_back(magpie::Choice::flat());
    if (magpie::segmentedSupported(op)) {
        c.push_back(magpie::Choice::segmented(1024));
        c.push_back(magpie::Choice::segmented(8192));
    }
    return c;
}

/**
 * What one rank received from its collective call: the sum of every
 * element (the job's checksum adds these up) and whether every element
 * is the value the operation must return for its inputs.
 */
struct Received
{
    double sum = 0;
    bool ok = true;

    /** A received row that must hold @p n copies of @p x. */
    void
    row(const magpie::Vec &v, std::size_t n, double x)
    {
        ok = ok && v.size() == n;
        for (double e : v) {
            sum += e;
            ok = ok && e == x;
        }
    }
};

/**
 * One call of @p op on rank @p self with bench/collective_timing.h's
 * payloads (rank r contributes r, ragged forms elems + r ones, scatter
 * roots twos), checking what the call returns into @p got. Every
 * expected value is a small integer, so sums compare exactly.
 */
sim::Task<void>
callCollective(magpie::Communicator &comm, magpie::Op op, Rank self,
               int p, int elems, Received &got)
{
    using magpie::Op;
    using magpie::ReduceOp;
    using magpie::Table;
    using magpie::Vec;
    const auto n = static_cast<std::size_t>(elems);
    const auto m = static_cast<std::size_t>(elems / 4 + 1);
    const double rankSum = p * (p - 1) / 2.0;
    const bool root = self == 0;
    Vec data(n, 1.0 * self), ragged;
    Table chunks, rows;
    if (op == Op::gatherv || op == Op::allgatherv)
        ragged.assign(n + self, 1.0);
    if (root && (op == Op::scatter || op == Op::scatterv))
        chunks.assign(p, Vec(n, 2.0));
    if (op == Op::alltoall || op == Op::alltoallv ||
        op == Op::reduce_scatter)
        rows.assign(p, Vec(m, 1.0 * self));
    // Every co_await stands in a statement of its own, with named
    // arguments: GCC 12 miscompiles co_await inside conditional
    // expressions and around temporaries.
    Vec v;
    Table t;
    switch (op) {
    case Op::barrier:
        co_await comm.barrier(self);
        break;
    case Op::bcast:
        v = co_await comm.bcast(self, 0, std::move(data));
        got.row(v, n, 0.0);
        break;
    case Op::reduce:
        v = co_await comm.reduce(self, 0, std::move(data), ReduceOp::sum());
        got.row(v, root ? n : 0, rankSum);
        break;
    case Op::allreduce:
        v = co_await comm.allreduce(self, std::move(data), ReduceOp::sum());
        got.row(v, n, rankSum);
        break;
    case Op::gather:
        t = co_await comm.gather(self, 0, std::move(data));
        break;
    case Op::gatherv:
        t = co_await comm.gatherv(self, 0, std::move(ragged));
        break;
    case Op::allgather:
        t = co_await comm.allgather(self, std::move(data));
        break;
    case Op::allgatherv:
        t = co_await comm.allgatherv(self, std::move(ragged));
        break;
    case Op::scatter:
        v = co_await comm.scatter(self, 0, std::move(chunks));
        got.row(v, n, 2.0);
        break;
    case Op::scatterv:
        v = co_await comm.scatterv(self, 0, std::move(chunks));
        got.row(v, n, 2.0);
        break;
    case Op::alltoall:
        t = co_await comm.alltoall(self, std::move(rows));
        break;
    case Op::alltoallv:
        t = co_await comm.alltoallv(self, std::move(rows));
        break;
    case Op::scan:
        v = co_await comm.scan(self, std::move(data), ReduceOp::sum());
        got.row(v, n, self * (self + 1) / 2.0);
        break;
    case Op::reduce_scatter:
        v = co_await comm.reduceScatter(self, std::move(rows),
                                        ReduceOp::sum());
        got.row(v, m, rankSum);
        break;
    }
    // Table results: row r comes from rank r.
    const bool isRagged = op == Op::gatherv || op == Op::allgatherv;
    const bool toRoot = op == Op::gather || op == Op::gatherv;
    const bool toAll = op == Op::allgather || op == Op::allgatherv ||
                       op == Op::alltoall || op == Op::alltoallv;
    if (toRoot || toAll)
        got.ok = got.ok && t.size() == (toAll || root ? std::size_t(p) : 0);
    for (std::size_t r = 0; r < t.size(); ++r) {
        if (op == Op::alltoall || op == Op::alltoallv)
            got.row(t[r], m, double(r));
        else
            got.row(t[r], isRagged ? n + r : n, isRagged ? 1.0 : double(r));
    }
}

/**
 * collective_sweep: the tuner's training grid. Every collective x
 * variant x payload x gap cell is one engine job that builds a fresh
 * Simulation, fabric, Panda and Communicator and makes one call of the
 * collective on every rank, checking what every rank receives.
 */
class CollectiveSweep : public Workload
{
  public:
    explicit CollectiveSweep(bool tiny)
    {
        if (tiny) {
            ops_ = {magpie::Op::bcast, magpie::Op::allreduce};
            elems_ = {8};
            gaps_ = {{1.0, 10}};
        } else {
            for (int i = 0; i < magpie::kOpCount; ++i)
                ops_.push_back(static_cast<magpie::Op>(i));
            // tli_tune's payloads, 64 B .. 256 KiB per rank: from
            // latency-bound to bandwidth-bound message paths.
            elems_ = {8, 128, 2048, 32768};
            for (double bw : {6.0, 1.0, 0.1})
                for (double lat : {0.5, 10.0, 100.0})
                    gaps_.push_back({bw, lat});
        }
    }

    void
    setup(std::uint64_t seed, const std::string &cacheDir, int workers,
          Probe *probe) override
    {
        jobs_.clear();
        engine_.reset();
        log_.spans = probe ? &probe->spans : nullptr;
        sink_ = probe ? &probe->sink : nullptr;
        cache_ = std::make_unique<exec::ResultCache>(cacheDir);
        engine_ = std::make_unique<exec::Engine>(
            exec::EngineConfig{workers, cache_.get(), false});
        for (const auto &[bw, lat] : gaps_) {
            const core::Scenario sc = paperMachine(seed)
                                          .with()
                                          .wanBandwidth(bw)
                                          .wanLatency(lat)
                                          .build();
            for (magpie::Op op : ops_) {
                const std::string opname = magpie::opName(op);
                for (int e : elems_) {
                    for (const magpie::Choice &choice :
                         tunerCandidates(op)) {
                        magpie::CollectivePolicy policy;
                        policy.set(op, choice);
                        core::AppVariant v;
                        v.app = "collective:" + opname + ":" +
                                std::to_string(e);
                        v.variant = choice.spec();
                        v.run = [this, app = v.app, spec = v.variant, op,
                                 policy, e](const core::Scenario &s) {
                            return runCell(app, spec, op, policy, e, s);
                        };
                        jobs_.push_back({std::move(v), sc, ""});
                    }
                }
            }
        }
    }

    BatchResult
    run() override
    {
        BatchResult out;
        std::vector<core::RunResult> results;
        {
            SpanScope span(log_.spans, "Engine::run collectives");
            results = engine_->run(jobs_);
            addEngineBatch(out, *engine_);
        }
        out.cells = jobs_.size();
        out.magpieCalls = jobs_.size() * 32;
        // What Engine::run returns, in job order, then what the jobs
        // themselves produced.
        Digest digest;
        digest.u64(results.size());
        for (const core::RunResult &r : results)
            digest.result(r);
        log_.drainInto(out, digest, /*appJobs=*/false);
        out.digest = digest.value();
        return out;
    }

  private:
    core::RunResult
    runCell(const std::string &app, const std::string &spec,
            magpie::Op op, const magpie::CollectivePolicy &policy,
            int elems, const core::Scenario &s)
    {
        SpanScope span(log_.spans, "job collective");
        const double t0 = wallNow();
        sim::Simulation sim;
        if (sink_)
            sim.setTrace(sink_);
        net::Topology topo(s.clusters, s.procsPerCluster);
        net::Fabric fabric(sim, topo, s.fabricParams());
        panda::Panda panda(sim, fabric);
        magpie::Communicator comm(panda, policy);
        const int p = topo.totalRanks();
        std::vector<Received> got(p);
        for (Rank r = 0; r < p; ++r)
            sim.spawn(callCollective(comm, op, r, p, elems, got[r]));
        sim.run();
        core::RunResult r;
        r.runTime = sim.now();
        r.traffic = fabric.stats();
        r.collectiveDispatch = comm.dispatchLog();
        r.verified = sim.finishedProcesses() == sim.spawnedProcesses();
        for (const Received &g : got) {
            r.checksum += g.sum;
            r.verified = r.verified && g.ok;
        }
        const double dt = wallNow() - t0;
        log_.add({app, spec, s, r, dt, sim.eventsProcessed()});
        return r;
    }

    std::vector<magpie::Op> ops_;
    std::vector<int> elems_;
    std::vector<std::pair<double, double>> gaps_;
    JobLog log_;
    sim::TraceSink *sink_ = nullptr;
    std::unique_ptr<exec::ResultCache> cache_;
    std::unique_ptr<exec::Engine> engine_;
    std::vector<core::ExperimentJob> jobs_;
};

std::vector<double>
logSpaced(double from, double to, int n)
{
    std::vector<double> v;
    for (int i = 0; i < n; ++i)
        v.push_back(from * std::pow(to / from,
                                    n > 1 ? double(i) / (n - 1) : 0.0));
    return v;
}

/**
 * predict_dense: LLAMP-style prediction. One traced run each of a
 * small, a medium and a large trace (water, asp, awari), then
 * analysis::predictStudy over a dense log-spaced grid spanning the
 * paper's axes, one call per latency row.
 */
class PredictDense : public Workload
{
  public:
    explicit PredictDense(bool tiny) : tiny_(tiny) {}

    void
    setup(std::uint64_t seed, const std::string &cacheDir, int workers,
          Probe *probe) override
    {
        (void)cacheDir;
        (void)workers;
        probe_ = probe;
        const int n = tiny_ ? 3 : 24;
        variants_ = {apps::findVariant("water", "opt")};
        if (!tiny_) {
            variants_.push_back(apps::findVariant("asp", "opt"));
            variants_.push_back(apps::findVariant("awari", "opt"));
        }
        bws_ = logSpaced(6.3, 0.03, n);
        lats_ = logSpaced(0.5, 300, n);
        scenario_ = paperMachine(seed);
        const std::string err =
            analysis::TraceGraph::validityError(scenario_);
        if (!err.empty())
            TLI_FATAL("predict_dense scenario is not predictable: ", err);
    }

    /**
     * All traced runs first, then the latency rows in row-major order
     * across the apps, so the medium trace's calls, where job_s.p50
     * falls, sample the host's speed over the whole prediction phase.
     * The digest folds each app's run and predicted rows together, in
     * app order.
     */
    BatchResult
    run() override
    {
        BatchResult out;
        SpanRecorder *spans = probe_ ? &probe_->spans : nullptr;
        SpanScope whole(spans, "predict_dense");
        std::vector<core::RunResult> runs(variants_.size());
        std::vector<analysis::TraceGraph> graphs(variants_.size());
        std::vector<std::vector<double>> predicted(variants_.size());
        for (std::size_t i = 0; i < variants_.size(); ++i) {
            const core::AppVariant &v = variants_[i];
            analysis::GraphTraceSink graphSink;
            sim::TeeSink tee({&graphSink, probe_ ? &probe_->sink : nullptr});
            core::Scenario traced = scenario_;
            traced.trace = probe_ ? static_cast<sim::TraceSink *>(&tee)
                                  : &graphSink;
            const double t0 = wallNow();
            core::RunResult &r = runs[i];
            {
                SpanScope span(spans, "traced run " + v.app);
                r = v.run(traced);
            }
            const double runS = wallNow() - t0;
            out.traceRunS += runS;
            out.appJobSeconds[v.app].push_back(runS);
            addRun(out, r);
            out.traceMessages += graphSink.messages().size();
            out.results.push_back(
                {core::ExperimentJob{v, scenario_, ""}, r});

            SpanScope span(spans, "TraceGraph::build " + v.app);
            graphs[i] = analysis::TraceGraph::build(graphSink, scenario_);
        }
        for (double lat : lats_) {
            for (std::size_t i = 0; i < variants_.size(); ++i) {
                SpanScope span(spans, "predictStudy row");
                const double t0 = wallNow();
                const analysis::PredictionStudy study =
                    analysis::predictStudy(graphs[i], bws_, {lat});
                const double dt = wallNow() - t0;
                out.predictS += dt;
                out.jobSeconds.push_back(dt);
                out.attempted++;
                out.cells += bws_.size();
                std::vector<double> &p = predicted[i];
                for (const core::Surface *s :
                     {&study.runTimeS, &study.speedupFraction,
                      &study.wanLatencyShareS, &study.wanBandwidthShareS})
                    p.insert(p.end(), s->values.at(0).begin(),
                             s->values.at(0).end());
                p.push_back(study.allMyrinetS);
                p.push_back(study.tracePoint.runTimeS);
            }
        }
        Digest digest;
        for (std::size_t i = 0; i < variants_.size(); ++i) {
            digest.str(variants_[i].fullName());
            digest.result(runs[i]);
            for (double x : predicted[i])
                digest.f64(x);
        }
        out.digest = digest.value();
        return out;
    }

  private:
    bool tiny_;
    std::vector<core::AppVariant> variants_;
    std::vector<double> bws_, lats_;
    core::Scenario scenario_;
    Probe *probe_ = nullptr;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "collective_sweep", "predict_dense"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, bool tiny)
{
    if (name == "paper_sweep")
        return std::make_unique<PaperSweep>(tiny);
    if (name == "collective_sweep")
        return std::make_unique<CollectiveSweep>(tiny);
    if (name == "predict_dense")
        return std::make_unique<PredictDense>(tiny);
    return nullptr;
}

std::map<std::string, double>
collectiveCallCosts(int reps)
{
    const net::FabricParams params =
        net::Profile::das(6.0, 0.5).params();
    std::map<std::string, double> us;
    for (const std::string &op : bench::allCollectives()) {
        std::vector<double> samples;
        for (int r = 0; r < reps; ++r) {
            const double t0 = wallNow();
            (void)bench::timeCollective(
                op, magpie::CollectivePolicy::magpie(), params, 4, 8, 128);
            samples.push_back(1e6 * (wallNow() - t0));
        }
        us[op] = median(samples);
    }
    return us;
}

} // namespace perfbench
