#include "panda/panda.h"

#include <map>
#include <utility>

namespace tli::panda {

Panda::Panda(sim::Simulation &sim, net::Fabric &fabric)
    : sim_(sim), fabric_(fabric)
{
    if (fabric_.params().impairments.active())
        reliable_ = std::make_unique<Reliable>(sim_, fabric_);
    const int ranks = fabric_.topology().totalRanks();
    mailboxes_.resize(ranks);
    replySeq_.assign(ranks, 0);
}

sim::Channel<Message> &
Panda::mailbox(Rank rank, int tag)
{
    TLI_ASSERT(rank >= 0 &&
               rank < static_cast<int>(mailboxes_.size()),
               "mailbox for bad rank ", rank);
    auto &boxes = mailboxes_[rank];
    auto it = boxes.find(tag);
    if (it == boxes.end()) {
        it = boxes.emplace(tag,
                 std::make_unique<sim::Channel<Message>>(sim_)).first;
    }
    return *it->second;
}

void
Panda::injectUnicast(Rank src, Rank dst, int tag,
                     std::uint64_t wire_bytes, int reply_tag,
                     std::any payload)
{
    PooledMessage msg = pool_.acquire();
    msg->src = src;
    msg->dst = dst;
    msg->tag = tag;
    msg->wireBytes = wire_bytes;
    msg->replyTag = reply_tag;
    msg->payload = std::move(payload);
    auto deliver = [this, msg = std::move(msg)] {
        mailbox(msg->dst, msg->tag).send(std::move(*msg));
    };
    // The whole point of pooling: the closure must stay inside the
    // event's inline buffer, or every send allocates again.
    static_assert(sim::EventFn::fitsInline<decltype(deliver)>,
                  "pooled delivery closure must not allocate");
    if (reliable_)
        reliable_->send(src, dst, wire_bytes, std::move(deliver));
    else
        fabric_.send(src, dst, wire_bytes, std::move(deliver));
}

void
Panda::send(Rank src, Rank dst, int tag, std::uint64_t payload_bytes,
            std::any payload)
{
    ++sendCount_;
    injectUnicast(src, dst, tag, payload_bytes + headerBytes, -1,
                  std::move(payload));
}

sim::Task<Message>
Panda::rpc(Rank self, Rank dst, int tag, std::uint64_t payload_bytes,
           std::any payload)
{
    const int rtag = nextReplyTag(self);
    ++sendCount_;
    injectUnicast(self, dst, tag, payload_bytes + headerBytes, rtag,
                  std::move(payload));

    Message response = co_await recv(self, rtag);
    // Reply mailboxes are one-shot; reclaim the entry.
    mailboxes_[self].erase(rtag);
    co_return response;
}

void
Panda::reply(Rank self, const Message &request,
             std::uint64_t payload_bytes, std::any payload)
{
    TLI_ASSERT(request.replyTag >= 0, "reply to a one-way message");
    send(self, request.src, request.replyTag, payload_bytes,
         std::move(payload));
}

void
Panda::multicast(Rank src, const std::vector<Rank> &dsts, int tag,
                 std::uint64_t payload_bytes, std::any payload)
{
    const auto &topo = fabric_.topology();
    const ClusterId sc = topo.clusterOf(src);
    const std::uint64_t wire = payload_bytes + headerBytes;

    std::vector<Rank> local;
    std::map<ClusterId, std::vector<Rank>> remote;
    for (Rank d : dsts) {
        if (d == src)
            continue;
        ClusterId c = topo.clusterOf(d);
        if (c == sc)
            local.push_back(d);
        else
            remote[c].push_back(d);
    }

    auto shared = std::make_shared<std::any>(std::move(payload));
    auto deliver = [this, src, tag, wire, shared](Rank d) {
        Message m;
        m.src = src;
        m.dst = d;
        m.tag = tag;
        m.wireBytes = wire;
        m.payload = *shared;
        mailbox(d, tag).send(std::move(m));
    };

    if (!local.empty()) {
        ++sendCount_;
        fabric_.multicastLocal(src, local, wire, deliver);
    }
    for (auto &[cluster, members] : remote) {
        if (reliable_) {
            // The wide-area half of the tree degrades to reliable
            // unicasts: a lost gateway bundle would need selective
            // per-member recovery anyway, so each remote member gets
            // its own sequenced, acknowledged frame (full wire size
            // each — the documented price of reliability here).
            for (Rank d : members) {
                ++sendCount_;
                reliable_->send(src, d, wire,
                                [deliver, d] { deliver(d); });
            }
        } else {
            ++sendCount_;
            fabric_.multicastToCluster(src, cluster, members, wire,
                                       deliver);
        }
    }
}

void
Panda::broadcast(Rank src, int tag, std::uint64_t payload_bytes,
                 std::any payload)
{
    std::vector<Rank> all;
    const int n = fabric_.topology().totalRanks();
    all.reserve(n);
    for (Rank r = 0; r < n; ++r) {
        if (r != src)
            all.push_back(r);
    }
    multicast(src, all, tag, payload_bytes, std::move(payload));
}

} // namespace tli::panda
