#include "magpie/communicator.h"

#include <algorithm>
#include <utility>

#include "magpie/collectives_flat.h"
#include "magpie/collectives_magpie.h"
#include "magpie/collectives_segmented.h"
#include "magpie/tuning.h"

namespace tli::magpie {

namespace {

/** The tag spacing the original two-family library always used; kept
 *  as a floor so existing machines keep bit-identical tags. */
constexpr int kLegacyPhasesPerCall = 160;

} // namespace

Communicator::Communicator(panda::Panda &panda, CollectivePolicy policy)
    : panda_(panda), policy_(std::move(policy))
{
    const int ranks = panda.topology().totalRanks();
    phases_ = std::max(kLegacyPhasesPerCall,
                       policy_.phasesPerCall(ranks));
    if (policy_.isTuned()) {
        TLI_ASSERT(policy_.bound(),
                   "tuned policy must be bound to a gap point "
                   "(CollectivePolicy::boundTo) before use");
    }
    seq_.assign(ranks, 0);
}

Communicator::~Communicator() = default;

int
Communicator::size() const
{
    return panda_.topology().totalRanks();
}

Choice
Communicator::choiceFor(Op op, std::uint64_t bytes)
{
    const std::uint64_t key = keyedBySize(op) ? bytes : 0;
    const Choice c = policy_.isTuned()
                         ? policy_.table()->choose(policy_.gapIndex(),
                                                   op, key)
                         : policy_.choice(op);
    if (logged_.emplace(static_cast<int>(op), key).second) {
        dispatchLog_.push_back(std::string(opName(op)) + ':' +
                               std::to_string(key) + '=' + c.spec());
    }
    return c;
}

CollectivesImpl &
Communicator::implFor(const Choice &c)
{
    switch (c.family) {
      case Family::flat:
        if (!flat_)
            flat_ = std::make_unique<FlatCollectives>(panda_, phases_);
        return *flat_;
      case Family::magpie:
        if (!magpie_)
            magpie_ = std::make_unique<MagpieCollectives>(panda_, phases_);
        return *magpie_;
      case Family::segmented:
        break;
    }
    auto &slot = seg_[c.segmentBytes];
    if (!slot) {
        slot = std::make_unique<SegmentedCollectives>(panda_, phases_,
                                                      c.segmentBytes);
    }
    return *slot;
}

sim::Task<void>
Communicator::barrier(Rank self)
{
    const Choice c = choiceFor(Op::barrier, 0);
    co_await implFor(c).barrier(self, nextSeq(self));
}

sim::Task<Vec>
Communicator::bcast(Rank self, Rank root, Vec data)
{
    const int seq = nextSeq(self);
    if (policy_.isTuned() && self != root) {
        // Only the root knows the payload size the table keys on; the
        // MagPIe receiver follows whatever protocol the root's first
        // message uses.
        co_return co_await implFor(Choice::magpie())
            .bcast(self, seq, root, std::move(data));
    }
    const Choice c = choiceFor(Op::bcast, wireSize(data));
    // Flat bcast's tree crosses cluster boundaries, so non-root ranks
    // running the MagPIe receiver could not follow it; the tuner never
    // offers it (tuningCandidates).
    TLI_ASSERT(!policy_.isTuned() || c.family != Family::flat,
               "a tuned bcast needs a magpie or segmented decision");
    co_return co_await implFor(c).bcast(self, seq, root, std::move(data));
}

sim::Task<Vec>
Communicator::reduce(Rank self, Rank root, Vec contrib, ReduceOp op)
{
    const Choice c = choiceFor(Op::reduce, wireSize(contrib));
    co_return co_await implFor(c).reduce(self, nextSeq(self), root,
                                         std::move(contrib), op);
}

sim::Task<Vec>
Communicator::allreduce(Rank self, Vec contrib, ReduceOp op)
{
    const Choice c = choiceFor(Op::allreduce, wireSize(contrib));
    co_return co_await implFor(c).allreduce(self, nextSeq(self),
                                            std::move(contrib), op);
}

sim::Task<Table>
Communicator::gather(Rank self, Rank root, Vec contrib)
{
    const Choice c = choiceFor(Op::gather, wireSize(contrib));
    co_return co_await implFor(c).gather(self, nextSeq(self), root,
                                         std::move(contrib));
}

sim::Task<Table>
Communicator::gatherv(Rank self, Rank root, Vec contrib)
{
    const Choice c = choiceFor(Op::gatherv, wireSize(contrib));
    co_return co_await implFor(c).gather(self, nextSeq(self), root,
                                         std::move(contrib));
}

sim::Task<Vec>
Communicator::scatter(Rank self, Rank root, Table chunks)
{
    const Choice c = choiceFor(Op::scatter, wireSize(chunks));
    co_return co_await implFor(c).scatter(self, nextSeq(self), root,
                                          std::move(chunks));
}

sim::Task<Vec>
Communicator::scatterv(Rank self, Rank root, Table chunks)
{
    const Choice c = choiceFor(Op::scatterv, wireSize(chunks));
    co_return co_await implFor(c).scatter(self, nextSeq(self), root,
                                          std::move(chunks));
}

sim::Task<Table>
Communicator::allgather(Rank self, Vec contrib)
{
    const Choice c = choiceFor(Op::allgather, wireSize(contrib));
    co_return co_await implFor(c).allgather(self, nextSeq(self),
                                            std::move(contrib));
}

sim::Task<Table>
Communicator::allgatherv(Rank self, Vec contrib)
{
    const Choice c = choiceFor(Op::allgatherv, wireSize(contrib));
    co_return co_await implFor(c).allgather(self, nextSeq(self),
                                            std::move(contrib));
}

sim::Task<Table>
Communicator::alltoall(Rank self, Table sendbuf)
{
    const Choice c = choiceFor(Op::alltoall, wireSize(sendbuf));
    co_return co_await implFor(c).alltoall(self, nextSeq(self),
                                           std::move(sendbuf));
}

sim::Task<Table>
Communicator::alltoallv(Rank self, Table sendbuf)
{
    const Choice c = choiceFor(Op::alltoallv, wireSize(sendbuf));
    co_return co_await implFor(c).alltoall(self, nextSeq(self),
                                           std::move(sendbuf));
}

sim::Task<Vec>
Communicator::scan(Rank self, Vec contrib, ReduceOp op)
{
    const Choice c = choiceFor(Op::scan, wireSize(contrib));
    co_return co_await implFor(c).scan(self, nextSeq(self),
                                       std::move(contrib), op);
}

sim::Task<Vec>
Communicator::reduceScatter(Rank self, Table contrib, ReduceOp op)
{
    const Choice c = choiceFor(Op::reduce_scatter, wireSize(contrib));
    co_return co_await implFor(c).reduceScatter(self, nextSeq(self),
                                                std::move(contrib), op);
}

} // namespace tli::magpie
