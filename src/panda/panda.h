/**
 * @file
 * The Panda messaging layer: tag-addressed mailboxes, asynchronous
 * unicast, RPC, and the cluster-aware multicast tree, layered on the
 * two-level fabric. This mirrors the wide-area/local-area messaging
 * substrate the paper's applications are written against.
 */

#ifndef TWOLAYER_PANDA_PANDA_H_
#define TWOLAYER_PANDA_PANDA_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fabric.h"
#include "panda/message.h"
#include "panda/reliable.h"
#include "sim/channel.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace tli::panda {

/**
 * One Panda instance serves every rank in the machine (it is
 * infrastructure, not a process). Simulated processes interact with it
 * through their own rank argument.
 */
class Panda
{
  public:
    Panda(sim::Simulation &sim, net::Fabric &fabric);

    sim::Simulation &simulation() { return sim_; }
    net::Fabric &fabric() { return fabric_; }
    const net::Topology &topology() const { return fabric_.topology(); }

    /**
     * Asynchronous unicast: the message is injected into the fabric
     * immediately; the sender does not block. @p payload_bytes is the
     * application payload size; the wire size adds the Panda header.
     * @p payload is any copyable value (see Envelope).
     */
    void send(Rank src, Rank dst, int tag, std::uint64_t payload_bytes,
              Envelope payload);

    /** Awaitable receive of the next message for (@p self, @p tag). */
    auto
    recv(Rank self, int tag)
    {
        return mailbox(self, tag).recv();
    }

    /** Non-blocking receive. */
    std::optional<Message>
    tryRecv(Rank self, int tag)
    {
        return mailbox(self, tag).tryRecv();
    }

    /** The raw mailbox channel (for select-style servers). */
    sim::Channel<Message> &mailbox(Rank rank, int tag);

    /**
     * Remote procedure call: sends a request and suspends until the
     * reply arrives. The callee must answer with reply().
     */
    sim::Task<Message> rpc(Rank self, Rank dst, int tag,
                           std::uint64_t payload_bytes, Envelope payload);

    /** Answer an RPC request @p request with a reply payload. */
    void reply(Rank self, const Message &request,
               std::uint64_t payload_bytes, Envelope payload);

    /**
     * Cluster-aware multicast tree: point-to-point transfers to each
     * remote cluster's gateway (one WAN crossing per cluster), hardware
     * multicast inside clusters. Destinations receive on @p tag with
     * @p src as the message source. The sender is excluded if present.
     * Every destination shares the one envelope.
     */
    void multicast(Rank src, const std::vector<Rank> &dsts, int tag,
                   std::uint64_t payload_bytes, Envelope payload);

    /** Total messages injected (diagnostics). */
    std::uint64_t sendCount() const { return sendCount_; }

    /**
     * The reliable-delivery protocol instance, or null when the fabric
     * has no impairments configured (loss-free runs take the exact
     * pre-protocol path and stay bit-identical to it).
     */
    const Reliable *reliable() const { return reliable_.get(); }

  private:
    /**
     * Stamp @p env with its header and inject it as one unicast:
     * through the reliable protocol when the fabric is impaired,
     * straight into the fabric otherwise.
     */
    void injectUnicast(Rank src, Rank dst, int tag,
                       std::uint64_t wire_bytes, int reply_tag,
                       Envelope env);

    int
    nextReplyTag(Rank rank)
    {
        return replyTagBase + (replySeq_[rank]++);
    }

    static constexpr int replyTagBase = 1 << 28;

    sim::Simulation &sim_;
    net::Fabric &fabric_;
    std::unique_ptr<Reliable> reliable_;
    std::vector<std::unordered_map<int,
        std::unique_ptr<sim::Channel<Message>>>> mailboxes_;
    std::vector<int> replySeq_;
    std::uint64_t sendCount_ = 0;
};

} // namespace tli::panda

#endif // TWOLAYER_PANDA_PANDA_H_
