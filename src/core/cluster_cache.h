/**
 * @file
 * Per-cluster coordinator caching (the Water optimization, paper
 * §3.2): when several processors in a cluster need the same remote
 * rank's data, only the designated local coordinator fetches it over
 * the slow link; everyone else is served a cached copy locally.
 */

#ifndef TWOLAYER_CORE_CLUSTER_CACHE_H_
#define TWOLAYER_CORE_CLUSTER_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "magpie/types.h"
#include "panda/panda.h"
#include "sim/task.h"

namespace tli::core {

/**
 * Epoch-keyed cluster cache for per-rank published data.
 *
 * Each rank publishes its data for an epoch with publish(). A rank
 * needing rank p's data calls get(p, epoch):
 *  - unoptimized access would contact p directly; instead the request
 *    goes to the local coordinator designated for p
 *    (Topology::coordinatorFor),
 *  - the coordinator fetches from p over the (possibly slow) link at
 *    most once per epoch, caches, and serves all local requesters.
 *
 * Requests for an epoch may arrive before publish() of that epoch;
 * they are parked and answered when the data appears. Old epochs are
 * garbage-collected two epochs behind.
 */
class ClusterCache
{
  public:
    /**
     * @param panda      messaging layer
     * @param tag_base   two consecutive tags are used: tag_base for
     *                   coordinator requests, tag_base+1 for provider
     *                   fetches
     * @param wire_scale factor applied to payload wire sizes (lets a
     *                   reduced-size workload keep the full-scale
     *                   transfer volume)
     */
    explicit ClusterCache(panda::Panda &panda, int tag_base,
                          double wire_scale = 1.0);

    /** Spawn the coordinator + provider servers for @p rank. */
    void startServers(Rank rank);

    /** Make @p data available as @p self's data for @p epoch. */
    void publish(Rank self, std::int64_t epoch, magpie::Vec data);

    /**
     * Fetch @p peer's data for @p epoch through the local coordinator.
     * Local when cached; one wide-area fetch per (cluster, peer,
     * epoch) otherwise.
     */
    sim::Task<magpie::Vec> get(Rank self, Rank peer, std::int64_t epoch);

    /**
     * Fetch @p peer's data straight from the owner, bypassing the
     * coordinator cache — the unoptimized access pattern, in which the
     * same data crosses the same slow link once per requester.
     */
    sim::Task<magpie::Vec> getDirect(Rank self, Rank peer,
                                     std::int64_t epoch);

    /** Stop all server processes. */
    void shutdown(Rank self);

    /** Number of provider fetches that actually crossed to a peer. */
    std::uint64_t upstreamFetches() const { return upstreamFetches_; }

  private:
    struct Key
    {
        std::int64_t epoch;
        Rank peer;

        bool
        operator<(const Key &o) const
        {
            if (epoch != o.epoch)
                return epoch < o.epoch;
            return peer < o.peer;
        }
    };

    sim::Task<void> coordinatorServer(Rank self);
    sim::Task<void> providerServer(Rank self);
    sim::Task<void> fetchAndAnswer(Rank self, Key key);

    int requestTag() const { return tagBase_; }
    int providerTag() const { return tagBase_ + 1; }

    std::uint64_t
    scaled(std::uint64_t bytes) const
    {
        return static_cast<std::uint64_t>(bytes * wireScale_);
    }

    panda::Panda &panda_;
    int tagBase_;
    double wireScale_;

    /** Per-rank coordinator state. */
    struct CoordState
    {
        std::map<Key, magpie::Vec> cache;
        std::map<Key, std::vector<panda::Message>> pending;
        std::map<Key, bool> inFlight;
    };
    /** Per-rank provider state. */
    struct ProviderState
    {
        std::map<std::int64_t, magpie::Vec> published;
        std::map<std::int64_t, std::vector<panda::Message>> waiting;
    };

    std::vector<CoordState> coord_;
    std::vector<ProviderState> provider_;
    std::uint64_t upstreamFetches_ = 0;
};

} // namespace tli::core

#endif // TWOLAYER_CORE_CLUSTER_CACHE_H_
