/**
 * @file
 * Reliable delivery over the impaired wide area: positive
 * acknowledgements, timeout-driven retransmission with exponential
 * backoff, and sequence-numbered duplicate suppression with in-order
 * handoff. The paper's testbed runs wide-area TCP, which the un-impaired
 * fabric models as a delivery-order clamp; once messages can actually be
 * lost (net::Impairments), this layer supplies the recovery half of
 * those TCP semantics so applications still complete — just slower.
 */

#ifndef TWOLAYER_PANDA_RELIABLE_H_
#define TWOLAYER_PANDA_RELIABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fabric.h"
#include "sim/inline_function.h"
#include "sim/simulation.h"
#include "sim/types.h"

namespace tli::panda {

/**
 * A per-(source, destination) stop-and-wait-free ARQ protocol on top of
 * the fabric. Every wide-area data frame carries a sequence number (a
 * small header surcharge on the wire); the receiver acknowledges every
 * copy it sees, suppresses duplicates, and hands deliveries to the
 * application strictly in sequence order. The sender keeps a frame
 * "in flight" until its ack arrives, retransmitting on a timeout that
 * doubles per attempt up to a cap.
 *
 * Intra-cluster traffic bypasses the protocol entirely — local links
 * are never impaired — so enabling it perturbs only wide-area timing.
 * All protocol counters live on the fabric (Fabric::deliveryCounters),
 * keeping one stats surface and letting resetStats() scope them to the
 * measured phase like every other counter.
 *
 * Protocol state is split by side and indexed by owning rank: sender
 * state is touched only by events running as @p src (send, ack
 * receipt, retransmit timers), receiver state only by events running
 * as @p dst. The delivery action lives once, in the frame's shared
 * Pending record, which every (re)transmitted copy carries; the first
 * copy to reach the receiver moves it out, and later copies are
 * duplicates that never need it. The delivery action may therefore
 * be move-only.
 */
class Reliable
{
  public:
    /** Wire surcharge of the sequencing header on data frames. */
    static constexpr std::uint64_t seqHeaderBytes = 12;
    /** Wire size of an acknowledgement frame. */
    static constexpr std::uint64_t ackBytes = 32;

    Reliable(sim::Simulation &sim, net::Fabric &fabric);

    /**
     * Send @p wire_bytes from @p src to @p dst, invoking @p deliver
     * exactly once at the (reliable, in-order) delivery time. Local
     * destinations are forwarded to the fabric unchanged.
     */
    void send(Rank src, Rank dst, std::uint64_t wire_bytes,
              sim::EventFn deliver);

    /** Timeout of the first transmission attempt of a @p bytes frame. */
    Time initialRto(std::uint64_t bytes) const;

  private:
    /** Sender-side record of one unacknowledged data frame: every
     *  (re)transmission and its timer carry only this record. */
    struct Pending
    {
        Rank src = 0;
        Rank dst = 0;
        std::uint64_t seq = 0;
        /** Wire size of the frame, sequencing header included. */
        std::uint64_t dataBytes = 0;
        bool acked = false;
        int attempt = 1;
        Time rto = 0;
        /** Moved out by the first copy of the frame to arrive. */
        sim::EventFn deliver;
    };

    /** Sender half of one (src, dst) pair; owned by @p src. */
    struct SendState
    {
        std::uint64_t nextSendSeq = 0;
        /** Unacknowledged frames, by sequence number. */
        std::unordered_map<std::uint64_t, std::shared_ptr<Pending>>
            inFlight;
    };

    /** Receiver half of one (src, dst) pair; owned by @p dst. */
    struct RecvState
    {
        /** Next sequence number owed to the application. */
        std::uint64_t nextDeliverSeq = 0;
        /** Delivery actions of frames that arrived but are not yet
         *  handed over (out of order, awaiting the gap fill). */
        std::map<std::uint64_t, sim::EventFn> deliverFns;
    };

    /** Inject one (re)transmission of frame @p pend and arm its
     *  timer. */
    void transmit(std::shared_ptr<Pending> pend);

    /** A copy of data frame @p pend reached the receiver. */
    void onData(Pending &pend);

    /** An acknowledgement of frame @p seq reached the sender. */
    void onAck(Rank src, Rank dst, std::uint64_t seq);

    /** Backoff ceiling; retries continue at this pace indefinitely,
     *  so even multi-second outage windows are eventually crossed. */
    static constexpr Time maxRto = 1.0;

    sim::Simulation &sim_;
    net::Fabric &fabric_;
    /** Sender state, indexed by source rank then destination. Looked
     *  up by key only, never iterated, so hash order cannot affect
     *  determinism. */
    std::vector<std::unordered_map<Rank, SendState>> sendByRank_;
    /** Receiver state, indexed by destination rank then source. */
    std::vector<std::unordered_map<Rank, RecvState>> recvByRank_;
};

} // namespace tli::panda

#endif // TWOLAYER_PANDA_RELIABLE_H_
