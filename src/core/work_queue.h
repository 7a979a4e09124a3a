/**
 * @file
 * Work queues for task-parallel applications (the TSP pattern, paper
 * §3.2): a centralized queue (the unoptimized program) and a
 * distributed per-cluster queue with inter-cluster work stealing (the
 * optimized program).
 *
 * Both queues assume a static fill: all jobs are inserted before the
 * workers start, so an empty queue (and, for the distributed variant,
 * an unsuccessful steal round) means the computation is finished.
 */

#ifndef TWOLAYER_CORE_WORK_QUEUE_H_
#define TWOLAYER_CORE_WORK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "panda/panda.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace tli::core {

/**
 * A single job queue served by one host rank. Workers fetch jobs with
 * get(); a nullopt reply means the queue is exhausted. On a 4-cluster
 * machine 75% of the fetches cross the slow links — the behaviour the
 * TSP optimization removes.
 */
template <typename Job>
class CentralWorkQueue
{
  public:
    /**
     * @param panda     messaging layer
     * @param tag       message tag owned by the queue
     * @param host      rank that serves the queue
     * @param job_bytes simulated wire size of one job
     */
    CentralWorkQueue(panda::Panda &panda, int tag, Rank host,
                     std::uint64_t job_bytes)
        : panda_(panda), tag_(tag), host_(host), jobBytes_(job_bytes)
    {
    }

    /** Insert jobs (host side, before the workers start). */
    void
    fill(std::vector<Job> jobs)
    {
        for (Job &j : jobs)
            jobs_.push_back(std::move(j));
    }

    /** Spawn the server process on the host rank. */
    void
    start()
    {
        panda_.simulation().spawn(server());
    }

    /** Fetch the next job; nullopt when the queue is exhausted. */
    sim::Task<std::optional<Job>>
    get(Rank self)
    {
        panda::Message reply =
            co_await panda_.rpc(self, host_, tag_, 8, 0);
        co_return reply.template take<std::optional<Job>>();
    }

    /** Stop the server (call once after all workers finished). */
    void
    shutdown(Rank self)
    {
        panda_.send(self, host_, tag_, 8, -1);
    }

    std::size_t pendingJobs() const { return jobs_.size(); }

  private:
    sim::Task<void>
    server()
    {
        for (;;) {
            panda::Message req = co_await panda_.recv(host_, tag_);
            if (req.as<int>() < 0)
                co_return;
            std::optional<Job> job;
            if (!jobs_.empty()) {
                job = std::move(jobs_.front());
                jobs_.pop_front();
            }
            std::uint64_t bytes = job ? jobBytes_ : 1;
            panda_.reply(host_, req, bytes, std::move(job));
        }
    }

    panda::Panda &panda_;
    int tag_;
    Rank host_;
    std::uint64_t jobBytes_;
    std::deque<Job> jobs_;
};

/**
 * One queue per cluster, hosted on the cluster's first rank. Workers
 * fetch locally; an empty local queue triggers work stealing from the
 * other clusters' queues (half of a victim's queue per steal). Only
 * when every victim is empty does get() return nullopt.
 *
 * Steal requests are answered by a dedicated server per cluster that
 * never blocks, so two clusters stealing from each other cannot
 * deadlock.
 */
template <typename Job>
class DistributedWorkQueue
{
  public:
    DistributedWorkQueue(panda::Panda &panda, int tag_base,
                         std::uint64_t job_bytes)
        : panda_(panda), tagBase_(tag_base), jobBytes_(job_bytes),
          queues_(panda.topology().clusterCount())
    {
    }

    /**
     * Distribute jobs round-robin over the cluster queues from rank
     * @p self: one bundled message per remote cluster (the initial
     * distribution crosses each slow link once). Completes when every
     * remote queue has acknowledged its bundle, so workers started
     * afterwards cannot observe a not-yet-filled queue.
     */
    sim::Task<void>
    fillFrom(Rank self, std::vector<Job> jobs)
    {
        const auto &topo = panda_.topology();
        std::vector<std::vector<Job>> per(topo.clusterCount());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            per[i % per.size()].push_back(std::move(jobs[i]));
        const ClusterId mine = topo.clusterOf(self);
        for (ClusterId c = 0; c < topo.clusterCount(); ++c) {
            if (c == mine) {
                for (Job &j : per[c])
                    queues_[c].push_back(std::move(j));
            } else {
                const std::uint64_t bytes =
                    jobBytes_ * per[c].size();
                (void)co_await panda_.rpc(self, topo.firstRankIn(c),
                                          fillTag(), bytes,
                                          std::move(per[c]));
            }
        }
    }

    /** Spawn the get-server and steal-server for @p rank's cluster
     *  (only the cluster's first rank hosts them). */
    void
    startServers(Rank rank)
    {
        const auto &topo = panda_.topology();
        if (topo.firstRankIn(topo.clusterOf(rank)) != rank)
            return;
        panda_.simulation().spawn(getServer(rank));
        panda_.simulation().spawn(stealServer(rank));
        panda_.simulation().spawn(fillServer(rank));
    }

    /** Fetch a job from the local cluster queue (stealing if needed);
     *  nullopt when the whole machine is out of work. */
    sim::Task<std::optional<Job>>
    get(Rank self)
    {
        const auto &topo = panda_.topology();
        Rank host = topo.firstRankIn(topo.clusterOf(self));
        panda::Message reply =
            co_await panda_.rpc(self, host, getTag(), 8, 0);
        co_return reply.template take<std::optional<Job>>();
    }

    /** Stop all servers. */
    void
    shutdown(Rank self)
    {
        const auto &topo = panda_.topology();
        for (ClusterId c = 0; c < topo.clusterCount(); ++c) {
            Rank host = topo.firstRankIn(c);
            panda_.send(self, host, getTag(), 8, -1);
            panda_.send(self, host, stealTag(), 8, -1);
            panda_.send(self, host, fillTag(), 8, std::vector<Job>{});
        }
    }

    std::uint64_t stealsAttempted() const { return stealsAttempted_; }
    std::uint64_t stealsSucceeded() const { return stealsSucceeded_; }

  private:
    int getTag() const { return tagBase_; }
    int stealTag() const { return tagBase_ + 1; }
    int fillTag() const { return tagBase_ + 2; }

    sim::Task<void>
    getServer(Rank host)
    {
        const auto &topo = panda_.topology();
        const ClusterId mine = topo.clusterOf(host);
        auto &queue = queues_[mine];
        for (;;) {
            panda::Message req = co_await panda_.recv(host, getTag());
            if (req.as<int>() < 0)
                co_return;
            if (queue.empty()) {
                // Steal round: ask each other cluster in turn.
                sim::PhaseScope span(panda_.simulation(), host,
                                     "steal");
                for (int off = 1; off < topo.clusterCount(); ++off) {
                    ClusterId victim =
                        (mine + off) % topo.clusterCount();
                    ++stealsAttempted_;
                    panda::Message loot = co_await panda_.rpc(
                        host, topo.firstRankIn(victim), stealTag(), 8,
                        0);
                    auto jobs =
                        loot.template take<std::vector<Job>>();
                    if (!jobs.empty()) {
                        ++stealsSucceeded_;
                        for (Job &j : jobs)
                            queue.push_back(std::move(j));
                        break;
                    }
                }
            }
            std::optional<Job> job;
            if (!queue.empty()) {
                job = std::move(queue.front());
                queue.pop_front();
            }
            panda_.reply(host, req, job ? jobBytes_ : 1,
                         std::move(job));
        }
    }

    sim::Task<void>
    stealServer(Rank host)
    {
        const auto &topo = panda_.topology();
        auto &queue = queues_[topo.clusterOf(host)];
        for (;;) {
            panda::Message req = co_await panda_.recv(host, stealTag());
            if (req.as<int>() < 0)
                co_return;
            // Hand over half of the queue (back half), rounding up so
            // a single remaining job can still be stolen.
            std::vector<Job> loot;
            std::size_t take = (queue.size() + 1) / 2;
            for (std::size_t i = 0; i < take; ++i) {
                loot.push_back(std::move(queue.back()));
                queue.pop_back();
            }
            const std::uint64_t bytes = jobBytes_ * loot.size() + 1;
            panda_.reply(host, req, bytes, std::move(loot));
        }
    }

    sim::Task<void>
    fillServer(Rank host)
    {
        const auto &topo = panda_.topology();
        auto &queue = queues_[topo.clusterOf(host)];
        for (;;) {
            panda::Message m = co_await panda_.recv(host, fillTag());
            auto jobs = m.template take<std::vector<Job>>();
            if (jobs.empty())
                co_return; // shutdown sentinel
            for (Job &j : jobs)
                queue.push_back(std::move(j));
            panda_.reply(host, m, 1, 0);
        }
    }

    panda::Panda &panda_;
    int tagBase_;
    std::uint64_t jobBytes_;
    std::vector<std::deque<Job>> queues_;
    std::uint64_t stealsAttempted_ = 0;
    std::uint64_t stealsSucceeded_ = 0;
};

} // namespace tli::core

#endif // TWOLAYER_CORE_WORK_QUEUE_H_
