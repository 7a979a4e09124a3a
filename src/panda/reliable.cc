#include "panda/reliable.h"

#include <algorithm>
#include <utility>

namespace tli::panda {

Reliable::Reliable(sim::Simulation &sim, net::Fabric &fabric)
    : sim_(sim), fabric_(fabric),
      sendByRank_(
          static_cast<std::size_t>(fabric.topology().totalRanks())),
      recvByRank_(
          static_cast<std::size_t>(fabric.topology().totalRanks()))
{
}

Time
Reliable::initialRto(std::uint64_t bytes) const
{
    const net::FabricParams &p = fabric_.params();
    // A generous static bound on one data + ack round trip: worst-case
    // propagation (jitter included), per-message costs and the frame's
    // serialization on the slowest hop, doubled for both directions,
    // plus a fixed slack for queueing. Deliberately loose — a spurious
    // retransmit costs wide-area bytes, a tight timer costs many.
    const double bw = std::min(
        {p.local.bandwidth, p.wide.bandwidth, p.gateway.bandwidth});
    const Time serialize =
        static_cast<double>(bytes + ackBytes) / bw;
    const Time one_way = p.local.latency +
                         p.wide.latency * (1.0 + p.wanJitter) +
                         p.gateway.latency;
    const Time per_msg = p.local.perMessageCost +
                         p.wide.perMessageCost +
                         p.gateway.perMessageCost;
    return 2 * (one_way + per_msg + serialize) + 1e-3;
}

void
Reliable::send(Rank src, Rank dst, std::uint64_t wire_bytes,
               sim::EventFn deliver)
{
    if (fabric_.topology().sameCluster(src, dst)) {
        // Local links are never impaired; keep the fast path (and its
        // wire size) exactly as without the protocol.
        fabric_.send(src, dst, wire_bytes, std::move(deliver));
        return;
    }
    SendState &ss = sendByRank_[static_cast<std::size_t>(src)][dst];
    const std::uint64_t seq = ss.nextSendSeq++;
    const std::uint64_t data_bytes = wire_bytes + seqHeaderBytes;
    auto pend = std::make_shared<Pending>();
    pend->rto = initialRto(data_bytes);
    pend->deliver = std::move(deliver);
    ss.inFlight.emplace(seq, pend);
    transmit(src, dst, seq, data_bytes, std::move(pend));
}

void
Reliable::transmit(Rank src, Rank dst, std::uint64_t seq,
                   std::uint64_t data_bytes,
                   std::shared_ptr<Pending> pend)
{
    // Every copy carries the shared record, so the delivery action
    // exists once however often the frame is retransmitted.
    fabric_.send(src, dst, data_bytes, [this, src, dst, seq, pend] {
        onData(src, dst, seq, *pend);
    });
    sim_.schedule(pend->rto,
                  [this, src, dst, seq, data_bytes, pend] {
                      if (pend->acked)
                          return;
                      ++fabric_.deliveryCounters().retransmits;
                      ++pend->attempt;
                      pend->rto = std::min(pend->rto * 2, maxRto);
                      transmit(src, dst, seq, data_bytes, pend);
                  });
}

void
Reliable::onData(Rank src, Rank dst, std::uint64_t seq, Pending &pend)
{
    RecvState &rs = recvByRank_[static_cast<std::size_t>(dst)][src];
    // Acknowledge every copy: the original ack may itself have been
    // lost, and only a fresh one stops the sender's retransmissions.
    fabric_.send(dst, src, ackBytes,
                 [this, src, dst, seq] { onAck(src, dst, seq); });
    if (seq < rs.nextDeliverSeq || rs.ready.count(seq)) {
        ++fabric_.deliveryCounters().duplicates;
        return;
    }
    // The first copy to arrive takes the action; every later copy is
    // a duplicate and returned above.
    rs.ready.insert(seq);
    rs.deliverFns.emplace(seq, std::move(pend.deliver));
    // Hand over the in-sequence prefix. A delivery action may send
    // again on this very pair; the maps tolerate that (no iterators
    // are held across the call).
    while (rs.ready.count(rs.nextDeliverSeq)) {
        auto it = rs.deliverFns.find(rs.nextDeliverSeq);
        TLI_ASSERT(it != rs.deliverFns.end(),
                   "reliable frame without a delivery action");
        sim::EventFn fn = std::move(it->second);
        rs.deliverFns.erase(it);
        rs.ready.erase(rs.nextDeliverSeq);
        ++rs.nextDeliverSeq;
        fn();
    }
}

void
Reliable::onAck(Rank src, Rank dst, std::uint64_t seq)
{
    SendState &ss = sendByRank_[static_cast<std::size_t>(src)][dst];
    auto it = ss.inFlight.find(seq);
    if (it == ss.inFlight.end()) {
        ++fabric_.deliveryCounters().duplicateAcks;
        return;
    }
    it->second->acked = true;
    ss.inFlight.erase(it);
    ++fabric_.deliveryCounters().acks;
}

} // namespace tli::panda
