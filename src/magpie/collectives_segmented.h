/**
 * @file
 * Segmented (pipelined) cluster-aware collectives: bcast, reduce, and
 * allreduce variants that split payloads into fixed-size segments and
 * stream them through the MagPIe store-and-forward trees, overlapping
 * wide-area transfers with local forwarding (in the style of "Fast
 * Tuning of Intra-Cluster Collective Communications"). The remaining
 * operations inherit the MagPIe algorithms.
 *
 * The broadcast, alone and as allreduce's second half, is the one
 * MagPIe broadcast routine (MagpieCollectives::bcastTree) with a seg:N
 * root choice: the same tree, fed labelled segments instead of one
 * whole payload. Segment streams are self-describing (each chunk
 * carries the count of chunks still to come), so a non-root rank needs
 * neither the segment size nor whether the root segments at all: it
 * follows the type of its first message. Tuned dispatch rests on that
 * rule. Only the root knows the payload size the tuning table keys on,
 * so the root runs the variant the table decides and every other rank
 * runs the MagPIe broadcast.
 */

#ifndef TWOLAYER_MAGPIE_COLLECTIVES_SEGMENTED_H_
#define TWOLAYER_MAGPIE_COLLECTIVES_SEGMENTED_H_

#include <cstdint>

#include "magpie/collectives_magpie.h"

namespace tli::magpie {

class SegmentedCollectives : public MagpieCollectives
{
  public:
    SegmentedCollectives(panda::Panda &panda, int phases_per_call,
                         std::uint32_t segment_bytes)
        : MagpieCollectives(panda, phases_per_call),
          segmentBytes_(segment_bytes)
    {
    }

    sim::Task<Vec> bcast(Rank self, int seq, Rank root, Vec data) override;
    sim::Task<Vec> reduce(Rank self, int seq, Rank root, Vec contrib,
                          ReduceOp op) override;
    sim::Task<Vec> allreduce(Rank self, int seq, Vec contrib,
                             ReduceOp op) override;

  private:
    /** Segmented reduce (local trees, then per-segment WAN stream). */
    sim::Task<Vec> reduceSegmented(Rank self, int local_tag, int wan_tag,
                                   Rank root, Vec contrib, ReduceOp op);

    std::uint32_t segmentBytes_;
};

} // namespace tli::magpie

#endif // TWOLAYER_MAGPIE_COLLECTIVES_SEGMENTED_H_
