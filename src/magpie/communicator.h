/**
 * @file
 * The public collective-communication API: the fourteen MPI-1
 * collective operations over all ranks of the two-layer machine, with
 * per-operation algorithm selection through a CollectivePolicy (flat
 * MPICH-like baselines, the cluster-aware MagPIe algorithms of paper
 * §6, pipelined segmented variants, or tuned dispatch from a persisted
 * decision table).
 */

#ifndef TWOLAYER_MAGPIE_COMMUNICATOR_H_
#define TWOLAYER_MAGPIE_COMMUNICATOR_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "magpie/policy.h"
#include "magpie/types.h"
#include "panda/panda.h"
#include "sim/task.h"

namespace tli::magpie {

class CollectivesImpl;
class FlatCollectives;
class MagpieCollectives;
class SegmentedCollectives;

/**
 * A communicator spanning every rank of the machine.
 *
 * Usage mirrors MPI: every rank must call the same sequence of
 * collective operations with matching arguments (same root, same
 * shapes). Each method is awaitable and completes when that rank's
 * participation is finished.
 *
 * Fixed-count operations (gather, scatter, allgather, alltoall,
 * reduce, allreduce, reduceScatter, scan, bcast) require equal-length
 * contributions on every rank; the *v variants accept ragged sizes.
 *
 * The policy maps every operation to its algorithm variant; a tuned
 * policy (CollectivePolicy::tuned, bound to a gap point) selects per
 * (operation, message size) from its decision table at call time.
 */
class Communicator
{
  public:
    Communicator(panda::Panda &panda, CollectivePolicy policy);
    ~Communicator();

    int size() const;
    const CollectivePolicy &policy() const { return policy_; }

    /** MPI_Barrier. */
    sim::Task<void> barrier(Rank self);

    /** MPI_Bcast: @p data is significant at @p root; returned on all. */
    sim::Task<Vec> bcast(Rank self, Rank root, Vec data);

    /** MPI_Reduce: result returned at @p root, empty elsewhere. */
    sim::Task<Vec> reduce(Rank self, Rank root, Vec contrib, ReduceOp op);

    /** MPI_Allreduce. */
    sim::Task<Vec> allreduce(Rank self, Vec contrib, ReduceOp op);

    /** MPI_Gather (uniform lengths enforced). */
    sim::Task<Table> gather(Rank self, Rank root, Vec contrib);

    /** MPI_Gatherv (ragged lengths allowed). */
    sim::Task<Table> gatherv(Rank self, Rank root, Vec contrib);

    /** MPI_Scatter: @p chunks significant at root, uniform lengths. */
    sim::Task<Vec> scatter(Rank self, Rank root, Table chunks);

    /** MPI_Scatterv. */
    sim::Task<Vec> scatterv(Rank self, Rank root, Table chunks);

    /** MPI_Allgather. */
    sim::Task<Table> allgather(Rank self, Vec contrib);

    /** MPI_Allgatherv. */
    sim::Task<Table> allgatherv(Rank self, Vec contrib);

    /** MPI_Alltoall: row d of @p sendbuf goes to rank d. */
    sim::Task<Table> alltoall(Rank self, Table sendbuf);

    /** MPI_Alltoallv. */
    sim::Task<Table> alltoallv(Rank self, Table sendbuf);

    /** MPI_Scan (inclusive prefix reduction). */
    sim::Task<Vec> scan(Rank self, Vec contrib, ReduceOp op);

    /** MPI_Reduce_scatter: row d of @p contrib is destined for rank d;
     *  each rank receives the element-wise reduction of its row. */
    sim::Task<Vec> reduceScatter(Rank self, Table contrib, ReduceOp op);

    /** Number of collective calls issued by rank 0 (diagnostics). */
    int callsIssued() const { return seq_.empty() ? 0 : seq_[0]; }

    /**
     * Distinct dispatch decisions taken so far, "op:bytes=variant" in
     * first-use order. Under a tuned policy this is the per-run record
     * that makes results reproducible; static policies log their fixed
     * choices the same way.
     */
    const std::vector<std::string> &dispatchLog() const
    {
        return dispatchLog_;
    }

  private:
    int
    nextSeq(Rank self)
    {
        return seq_[self]++;
    }

    /**
     * The (possibly table-driven) variant for one call of @p op with
     * a payload of @p bytes, looked up and logged under the op's
     * dispatch key (keyedBySize).
     */
    Choice choiceFor(Op op, std::uint64_t bytes);
    /** The lazily-created implementation behind a choice. */
    CollectivesImpl &implFor(const Choice &c);

    panda::Panda &panda_;
    CollectivePolicy policy_;
    int phases_;
    std::unique_ptr<FlatCollectives> flat_;
    std::unique_ptr<MagpieCollectives> magpie_;
    std::map<std::uint32_t, std::unique_ptr<SegmentedCollectives>> seg_;
    std::vector<int> seq_;
    std::vector<std::string> dispatchLog_;
    std::set<std::pair<int, std::uint64_t>> logged_;
};

} // namespace tli::magpie

#endif // TWOLAYER_MAGPIE_COMMUNICATOR_H_
