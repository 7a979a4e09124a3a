/**
 * @file
 * The internal strategy interface implemented by the flat (MPICH-like)
 * and MagPIe (cluster-aware) collective algorithm families, plus the
 * messaging and tree helpers they share.
 */

#ifndef TWOLAYER_MAGPIE_IMPL_H_
#define TWOLAYER_MAGPIE_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "magpie/types.h"
#include "panda/panda.h"
#include "sim/task.h"

namespace tli::magpie {

/**
 * One collective-algorithm family. Every method is invoked once per
 * participating rank with a call sequence number @p seq that is
 * identical across ranks for matching calls (the Communicator
 * guarantees this); implementations derive collision-free message tags
 * from it.
 *
 * Reduction operators must be associative and commutative: tree
 * reductions combine partial results in arrival order.
 */
class CollectivesImpl
{
  public:
    /**
     * @param phases_per_call tag spacing between consecutive collective
     *        calls. The Communicator derives it from its
     *        CollectivePolicy (never below the historical 160, so
     *        existing machines keep identical tags); segmented and
     *        large-rank-count variants raise it instead of overflowing.
     */
    CollectivesImpl(panda::Panda &panda, int phases_per_call)
        : panda_(panda), phasesPerCall_(phases_per_call)
    {
        TLI_ASSERT(phases_per_call > 0, "phase budget must be positive");
    }
    virtual ~CollectivesImpl() = default;

    virtual sim::Task<void> barrier(Rank self, int seq) = 0;
    virtual sim::Task<Vec> bcast(Rank self, int seq, Rank root,
                                 Vec data) = 0;
    virtual sim::Task<Vec> reduce(Rank self, int seq, Rank root,
                                  Vec contrib, ReduceOp op) = 0;
    virtual sim::Task<Vec> allreduce(Rank self, int seq, Vec contrib,
                                     ReduceOp op) = 0;
    virtual sim::Task<Table> gather(Rank self, int seq, Rank root,
                                    Vec contrib) = 0;
    virtual sim::Task<Vec> scatter(Rank self, int seq, Rank root,
                                   Table chunks) = 0;
    virtual sim::Task<Table> allgather(Rank self, int seq,
                                       Vec contrib) = 0;
    virtual sim::Task<Table> alltoall(Rank self, int seq,
                                      Table sendbuf) = 0;
    virtual sim::Task<Vec> scan(Rank self, int seq, Vec contrib,
                                ReduceOp op) = 0;
    virtual sim::Task<Vec> reduceScatter(Rank self, int seq,
                                         Table contrib, ReduceOp op) = 0;

  protected:
    /**
     * Message tag for phase @p phase of collective call @p seq.
     * Collision-free by construction: phases are confined to the
     * policy-derived per-call budget (asserted in debug) and the whole
     * tag must fit in int without wrapping into the next call's range.
     */
    int
    tagFor(int seq, int phase) const
    {
        TLI_ASSERT(phase >= 0 && phase < phasesPerCall_,
                   "collective phase out of range: ", phase);
        const std::int64_t tag =
            static_cast<std::int64_t>(tagBase) +
            static_cast<std::int64_t>(seq) * phasesPerCall_ + phase;
        TLI_ASSERT(tag <= std::numeric_limits<int>::max(),
                   "collective tag overflow at seq ", seq);
        return static_cast<int>(tag);
    }

    /** Send any payload type that has a wireSize() overload. */
    template <typename P>
    void
    sendAny(Rank self, Rank dst, int tag, P payload)
    {
        // The size must be read before the payload is moved into the
        // message (argument evaluation order is unspecified).
        const std::uint64_t bytes = wireSize(payload);
        panda_.send(self, dst, tag, bytes, std::move(payload));
    }

    template <typename P>
    sim::Task<P>
    recvAny(Rank self, int tag)
    {
        panda::Message m = co_await panda_.recv(self, tag);
        co_return m.take<P>();
    }

    /** Index of @p r in @p members; panics if absent. */
    static int
    indexOf(const std::vector<Rank> &members, Rank r)
    {
        auto it = std::find(members.begin(), members.end(), r);
        TLI_ASSERT(it != members.end(), "rank ", r, " not a member");
        return static_cast<int>(it - members.begin());
    }

    /**
     * Where @p self sits in the binomial tree over @p members rooted
     * at @p local_root: the one tree bcastOver, reduceOver and the
     * segmented protocols walk. With vrank the rank's distance from
     * the root (in member order), its parent clears vrank's lowest
     * set bit, and its children are vrank + 2^k for k < childCount.
     */
    struct TreePosition
    {
        int childCount = 0;
        bool hasParent = false;
        Rank parent = 0;
        int vrank = 0;
        int rootIdx = 0;

        /** Child @p i in broadcast send order (largest subtree
         *  first) of the tree over @p members. */
        Rank
        child(const std::vector<Rank> &members, int i) const
        {
            const int n = static_cast<int>(members.size());
            return members[(vrank + (1 << (childCount - 1 - i)) +
                            rootIdx) % n];
        }
    };

    TreePosition
    treePosition(const std::vector<Rank> &members, Rank local_root,
                 Rank self) const
    {
        const int n = static_cast<int>(members.size());
        TreePosition pos;
        pos.rootIdx = indexOf(members, local_root);
        pos.vrank = (indexOf(members, self) - pos.rootIdx + n) % n;
        int mask = 1;
        while (mask < n) {
            if (pos.vrank & mask) {
                pos.hasParent = true;
                pos.parent = members[(pos.vrank - mask + pos.rootIdx) % n];
                break;
            }
            if (pos.vrank + mask < n)
                ++pos.childCount;
            mask <<= 1;
        }
        return pos;
    }

    /**
     * Children of @p self in the tree over @p members rooted at
     * @p local_root, in bcastOver's send order. Used by protocols
     * that forward data chunk by chunk (and by the tuned bcast
     * receiver, which learns the protocol only from its first
     * message).
     */
    std::vector<Rank>
    bcastChildren(const std::vector<Rank> &members, Rank local_root,
                  Rank self) const
    {
        const TreePosition pos = treePosition(members, local_root, self);
        std::vector<Rank> children;
        children.reserve(static_cast<std::size_t>(pos.childCount));
        for (int i = 0; i < pos.childCount; ++i)
            children.push_back(pos.child(members, i));
        return children;
    }

    /**
     * Binomial-tree broadcast over an arbitrary participant set.
     * @p members lists the participants; @p local_root must be one of
     * them. Returns the data on every member. Works for any payload
     * with a wireSize() overload.
     */
    template <typename P>
    sim::Task<P>
    bcastOver(Rank self, int tag, const std::vector<Rank> &members,
              Rank local_root, P data)
    {
        const TreePosition pos = treePosition(members, local_root, self);
        if (pos.hasParent)
            data = co_await recvAny<P>(self, tag);
        for (int i = 0; i < pos.childCount; ++i)
            sendAny(self, pos.child(members, i), tag, data);
        co_return data;
    }

    /**
     * Binomial-tree reduction to @p local_root over a rank set.
     * Partials combine in arrival order. Non-root members return an
     * empty payload.
     */
    template <typename P>
    sim::Task<P>
    reduceOver(Rank self, int tag, const std::vector<Rank> &members,
               Rank local_root, P contrib, ReduceOp op)
    {
        const TreePosition pos = treePosition(members, local_root, self);
        for (int i = 0; i < pos.childCount; ++i) {
            P child = co_await recvAny<P>(self, tag);
            op.combine(contrib, child);
        }
        if (!pos.hasParent)
            co_return contrib;
        sendAny(self, pos.parent, tag, std::move(contrib));
        co_return P{};
    }

    int size() const { return panda_.topology().totalRanks(); }
    const net::Topology &topo() const { return panda_.topology(); }

    static constexpr int tagBase = 1 << 16;

    panda::Panda &panda_;
    const int phasesPerCall_;
};

} // namespace tli::magpie

#endif // TWOLAYER_MAGPIE_IMPL_H_
