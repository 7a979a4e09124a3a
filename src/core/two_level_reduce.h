/**
 * @file
 * Two-level reduction trees (the Water force-update optimization,
 * paper §3.2 and §3.3): contributions destined for a remote rank are
 * first combined at a designated local coordinator, so only one
 * partial result crosses the slow inter-cluster link per cluster.
 */

#ifndef TWOLAYER_CORE_TWO_LEVEL_REDUCE_H_
#define TWOLAYER_CORE_TWO_LEVEL_REDUCE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "magpie/types.h"
#include "panda/panda.h"
#include "sim/task.h"

namespace tli::core {

/**
 * Many-to-one reduction with per-cluster combining.
 *
 * Producers call contribute(dst, epoch, data, expected_local) where
 * expected_local is the number of contributions for (dst, epoch) that
 * will originate from the producer's *own* cluster. The cluster's
 * designated coordinator for dst combines them and forwards a single
 * message to dst. The consumer awaits collect(epoch, clusters)
 * which combines one partial per contributing cluster.
 *
 * With a one-level tree (the unoptimized pattern) every producer
 * would send straight to dst — that behaviour is what the
 * unoptimized Water application does by hand; this class always
 * applies the two-level optimization.
 */
class TwoLevelReducer
{
  public:
    /**
     * @param panda    messaging layer
     * @param tag_base two consecutive tags are used: tag_base for
     *                 local contributions, tag_base+1 for combined
     *                 cross-cluster partials
     * @param op       associative, commutative combiner
     */
    TwoLevelReducer(panda::Panda &panda, int tag_base,
                    magpie::ReduceOp op, double wire_scale = 1.0);

    /** Spawn the combiner server for @p rank. */
    void startServer(Rank rank);

    /**
     * Contribute @p data toward @p dst for @p epoch.
     * @p expected_local must be identical for all contributors of
     * (dst, epoch) within one cluster: the number of local
     * contributions the coordinator should wait for.
     */
    void contribute(Rank self, Rank dst, std::int64_t epoch,
                    magpie::Vec data, int expected_local);

    /**
     * Await the combined result at the destination: one partial per
     * contributing cluster, combined with @p op.
     * @p clusters_expected is the number of clusters contributing.
     */
    sim::Task<magpie::Vec> collect(Rank self, std::int64_t epoch,
                                   int clusters_expected);

    /** Stop all server processes. */
    void shutdown(Rank self);

    /** Combined partials that crossed between clusters. */
    std::uint64_t partialsSent() const { return partialsSent_; }

  private:
    struct Contribution
    {
        Rank dst = invalidNode;
        std::int64_t epoch = 0;
        int expectedLocal = 0;
        magpie::Vec data;
    };

    struct Key
    {
        std::int64_t epoch;
        Rank dst;

        bool
        operator<(const Key &o) const
        {
            if (epoch != o.epoch)
                return epoch < o.epoch;
            return dst < o.dst;
        }
    };

    struct Slot
    {
        int received = 0;
        magpie::Vec combined;
    };

    sim::Task<void> combinerServer(Rank self);

    int contribTag() const { return tagBase_; }
    int partialTag() const { return tagBase_ + 1; }

    std::uint64_t
    scaled(std::uint64_t bytes) const
    {
        return static_cast<std::uint64_t>(bytes * wireScale_);
    }

    panda::Panda &panda_;
    int tagBase_;
    magpie::ReduceOp op_;
    double wireScale_ = 1.0;
    std::vector<std::map<Key, Slot>> slots_;
    /** Per-destination partials that arrived for a future epoch while
     *  an earlier collect() was still in progress. */
    std::vector<std::map<std::int64_t, std::vector<magpie::Vec>>>
        earlyPartials_;
    std::uint64_t partialsSent_ = 0;
};

} // namespace tli::core

#endif // TWOLAYER_CORE_TWO_LEVEL_REDUCE_H_
