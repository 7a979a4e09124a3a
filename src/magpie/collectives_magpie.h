/**
 * @file
 * MagPIe-style cluster-aware collective algorithms (paper §6): every
 * data item crosses a wide-area link at most once, wide-area transfers
 * happen in parallel, and intra-cluster phases use fast local trees.
 * One rank per cluster (the lowest) acts as the cluster coordinator.
 */

#ifndef TWOLAYER_MAGPIE_COLLECTIVES_MAGPIE_H_
#define TWOLAYER_MAGPIE_COLLECTIVES_MAGPIE_H_

#include <cstddef>
#include <cstdint>

#include "magpie/impl.h"
#include "magpie/policy.h"

namespace tli::magpie {

class MagpieCollectives : public CollectivesImpl
{
  public:
    using CollectivesImpl::CollectivesImpl;

    sim::Task<void> barrier(Rank self, int seq) override;
    sim::Task<Vec> bcast(Rank self, int seq, Rank root, Vec data) override;
    sim::Task<Vec> reduce(Rank self, int seq, Rank root, Vec contrib,
                          ReduceOp op) override;
    sim::Task<Vec> allreduce(Rank self, int seq, Vec contrib,
                             ReduceOp op) override;
    sim::Task<Table> gather(Rank self, int seq, Rank root,
                            Vec contrib) override;
    sim::Task<Vec> scatter(Rank self, int seq, Rank root,
                           Table chunks) override;
    sim::Task<Table> allgather(Rank self, int seq, Vec contrib) override;
    sim::Task<Table> alltoall(Rank self, int seq, Table sendbuf) override;
    sim::Task<Vec> scan(Rank self, int seq, Vec contrib,
                        ReduceOp op) override;
    sim::Task<Vec> reduceScatter(Rank self, int seq, Table contrib,
                                 ReduceOp op) override;

  protected:
    Rank
    coordOf(ClusterId c) const
    {
        return topo().firstRankIn(c);
    }

    bool
    isCoord(Rank r) const
    {
        return coordOf(topo().clusterOf(r)) == r;
    }

    /**
     * The MagPIe broadcast on tags @p wan_tag and @p local_tag: the
     * root sends one wide-area copy to every remote coordinator, and
     * each cluster forwards down the binomial tree rooted at its
     * coordinator (at the root itself in the root's cluster).
     * @p rootChoice matters only at the root: magpie sends the whole
     * payload as one message, seg:N streams it as labelled N-byte
     * segments. Every other rank follows the protocol of its first
     * message, so it never needs to know what the root chose. The
     * bcast and allreduce of the MagPIe and segmented families, and
     * tuned dispatch, all run this one routine.
     */
    sim::Task<Vec> bcastTree(Rank self, int wan_tag, int local_tag,
                             Rank root, Vec data, Choice rootChoice);

    /** Reduce with explicit tag phases (reused by allreduce). */
    sim::Task<Vec> reducePhased(Rank self, int local_tag, int wan_tag,
                                Rank root, Vec contrib, ReduceOp op);

    /** How a vector of @p elems doubles splits at @p segBytes
     *  granularity. Always at least one chunk, so empty payloads
     *  still flow. */
    struct Chunking
    {
        std::size_t elemsPerChunk = 1;
        int count = 1;

        Chunking(std::size_t elems, std::uint32_t segBytes);
        /** Chunk @p j of @p v. */
        Vec chunk(const Vec &v, int j) const;
    };
};

} // namespace tli::magpie

#endif // TWOLAYER_MAGPIE_COLLECTIVES_MAGPIE_H_
