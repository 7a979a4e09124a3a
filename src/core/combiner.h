/**
 * @file
 * Message combining (the Awari and Barnes-Hut optimization, paper
 * §3.2/§3.3): many small messages to the same destination are batched
 * into one; optionally a second, per-cluster layer assembles
 * cross-cluster traffic at a designated local processor, ships it over
 * the slow link in one piece, and a designated processor in the target
 * cluster redistributes it.
 */

#ifndef TWOLAYER_CORE_COMBINER_H_
#define TWOLAYER_CORE_COMBINER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "panda/panda.h"
#include "sim/task.h"

namespace tli::core {

/**
 * Batches small items per destination (and optionally per destination
 * cluster). Item is any copyable value type; its simulated wire size
 * is Config::itemBytes.
 *
 * Receivers loop on recvBatch(); an empty batch signals shutdown (sent
 * with sendStop).
 */
template <typename Item>
class MessageCombiner
{
  public:
    struct Config
    {
        /** Flush a buffer when it reaches this many items. */
        std::size_t maxItems = 64;
        /** Simulated wire size of one item. */
        std::uint64_t itemBytes = 8;
        /**
         * Enable the second combining layer: remote items are shipped
         * per destination *cluster* through designated forwarders.
         */
        bool clusterLayer = false;
    };

    using Batch = std::vector<Item>;

    MessageCombiner(panda::Panda &panda, int tag_base, Config config)
        : panda_(panda), tagBase_(tag_base), config_(config),
          direct_(panda.topology().totalRanks()),
          clustered_(panda.topology().totalRanks())
    {
    }

    /** Spawn the cluster forwarder for @p rank (cluster layer only). */
    void
    startForwarder(Rank rank)
    {
        if (config_.clusterLayer &&
            panda_.topology().firstRankIn(
                panda_.topology().clusterOf(rank)) == rank) {
            panda_.simulation().spawn(forwarderServer(rank));
        }
    }

    /** Queue @p item for @p dst; flushes when thresholds are hit. */
    void
    add(Rank self, Rank dst, Item item)
    {
        const auto &topo = panda_.topology();
        if (config_.clusterLayer && !topo.sameCluster(self, dst)) {
            ClusterId c = topo.clusterOf(dst);
            auto &buf = clustered_[self][c];
            buf.emplace_back(dst, std::move(item));
            if (buf.size() >= config_.maxItems)
                flushCluster(self, c);
        } else {
            auto &buf = direct_[self][dst];
            buf.push_back(std::move(item));
            if (buf.size() >= config_.maxItems)
                flushDirect(self, dst);
        }
    }

    /** Flush every pending buffer of @p self. */
    void
    flushAll(Rank self)
    {
        for (auto &[dst, buf] : direct_[self]) {
            if (!buf.empty())
                flushDirect(self, dst);
        }
        for (auto &[cluster, buf] : clustered_[self]) {
            if (!buf.empty())
                flushCluster(self, cluster);
        }
    }

    /**
     * Await the next batch delivered to @p self. An empty batch is the
     * shutdown signal.
     */
    sim::Task<Batch>
    recvBatch(Rank self)
    {
        panda::Message m = co_await panda_.recv(self, deliverTag());
        co_return m.take<Batch>();
    }

    /** Non-blocking receive of a delivered batch. */
    std::optional<Batch>
    tryRecvBatch(Rank self)
    {
        auto msg = panda_.tryRecv(self, deliverTag());
        if (!msg)
            return std::nullopt;
        return msg->template take<Batch>();
    }

    /** Deliver an empty (shutdown) batch to @p dst. */
    void
    sendStop(Rank self, Rank dst)
    {
        panda_.send(self, dst, deliverTag(), 0, Batch{});
    }

    /** Stop the forwarder servers. */
    void
    shutdownForwarders(Rank self)
    {
        if (!config_.clusterLayer)
            return;
        const auto &topo = panda_.topology();
        for (ClusterId c = 0; c < topo.clusterCount(); ++c) {
            panda_.send(self, topo.firstRankIn(c), forwardTag(), 0,
                        Routed{});
        }
    }

    std::uint64_t batchesSent() const { return batchesSent_; }
    std::uint64_t itemsSent() const { return itemsSent_; }

  private:
    /** Items travelling through a forwarder, labelled with their
     *  final destination. */
    using Routed = std::vector<std::pair<Rank, Item>>;

    int deliverTag() const { return tagBase_; }
    int forwardTag() const { return tagBase_ + 1; }

    void
    flushDirect(Rank self, Rank dst)
    {
        auto &buf = direct_[self][dst];
        ++batchesSent_;
        itemsSent_ += buf.size();
        const std::uint64_t bytes = config_.itemBytes * buf.size();
        panda_.send(self, dst, deliverTag(), bytes,
                    Batch(buf.begin(), buf.end()));
        buf.clear();
    }

    void
    flushCluster(Rank self, ClusterId cluster)
    {
        auto &buf = clustered_[self][cluster];
        ++batchesSent_;
        itemsSent_ += buf.size();
        Rank forwarder = panda_.topology().firstRankIn(cluster);
        const std::uint64_t bytes =
            (config_.itemBytes + 8) * buf.size();
        panda_.send(self, forwarder, forwardTag(), bytes,
                    Routed(buf.begin(), buf.end()));
        buf.clear();
    }

    sim::Task<void>
    forwarderServer(Rank self)
    {
        for (;;) {
            panda::Message m = co_await panda_.recv(self, forwardTag());
            Routed routed = m.take<Routed>();
            if (routed.empty())
                co_return;
            // Split per final destination; one local message each.
            std::map<Rank, Batch> split;
            for (auto &[dst, item] : routed)
                split[dst].push_back(std::move(item));
            for (auto &[dst, batch] : split) {
                const std::uint64_t bytes =
                    config_.itemBytes * batch.size();
                panda_.send(self, dst, deliverTag(), bytes,
                            std::move(batch));
            }
        }
    }

    panda::Panda &panda_;
    int tagBase_;
    Config config_;

    // A flush sends an exact-size copy of a buffer and clears it, so
    // the buffer keeps its capacity: each batch costs one allocation,
    // not a regrowth from empty.

    /** Per-sender direct buffers, keyed by destination rank. */
    std::vector<std::map<Rank, Batch>> direct_;
    /** Per-sender cluster buffers, keyed by destination cluster. */
    std::vector<std::map<ClusterId, Routed>> clustered_;

    std::uint64_t batchesSent_ = 0;
    std::uint64_t itemsSent_ = 0;
};

} // namespace tli::core

#endif // TWOLAYER_CORE_COMBINER_H_
