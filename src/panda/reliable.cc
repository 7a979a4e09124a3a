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
    pend->src = src;
    pend->dst = dst;
    pend->seq = seq;
    pend->dataBytes = data_bytes;
    pend->rto = initialRto(data_bytes);
    pend->deliver = std::move(deliver);
    ss.inFlight.emplace(seq, pend);
    transmit(std::move(pend));
}

void
Reliable::transmit(std::shared_ptr<Pending> pend)
{
    // Every copy carries the shared record, so the delivery action
    // exists once however often the frame is retransmitted.
    auto arrive = [this, pend] { onData(*pend); };
    auto expire = [this, pend] {
        if (pend->acked)
            return;
        ++fabric_.deliveryCounters().retransmits;
        ++pend->attempt;
        pend->rto = std::min(pend->rto * 2, maxRto);
        transmit(pend);
    };
    // Both closures fit inline, so no (re)transmission boxes one.
    static_assert(sim::EventFn::fitsInline<decltype(arrive)> &&
                      sim::EventFn::fitsInline<decltype(expire)>,
                  "reliable frame closures must fit EventFn's inline "
                  "buffer");
    fabric_.send(pend->src, pend->dst, pend->dataBytes, std::move(arrive));
    sim_.schedule(pend->rto, std::move(expire));
}

void
Reliable::onData(Pending &pend)
{
    const Rank src = pend.src;
    const Rank dst = pend.dst;
    const std::uint64_t seq = pend.seq;
    RecvState &rs = recvByRank_[static_cast<std::size_t>(dst)][src];
    // Acknowledge every copy: the original ack may itself have been
    // lost, and only a fresh one stops the sender's retransmissions.
    fabric_.send(dst, src, ackBytes,
                 [this, src, dst, seq] { onAck(src, dst, seq); });
    if (seq < rs.nextDeliverSeq || rs.deliverFns.count(seq)) {
        ++fabric_.deliveryCounters().duplicates;
        return;
    }
    // The first copy to arrive takes the action; every later copy is
    // a duplicate and returned above.
    rs.deliverFns.emplace(seq, std::move(pend.deliver));
    // Hand over the in-sequence prefix. A delivery action may send
    // again on this very pair; the map tolerates that (no iterator is
    // held across the call).
    for (auto it = rs.deliverFns.find(rs.nextDeliverSeq);
         it != rs.deliverFns.end();
         it = rs.deliverFns.find(rs.nextDeliverSeq)) {
        sim::EventFn fn = std::move(it->second);
        rs.deliverFns.erase(it);
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
