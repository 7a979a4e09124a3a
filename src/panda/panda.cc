#include "panda/panda.h"

#include <map>
#include <optional>
#include <utility>

namespace tli::panda {

namespace {

/**
 * Hands one envelope to one destination's mailbox: the event every
 * unicast, multicast member and reliable frame delivers through. It
 * moves its reference into the Message, so a unicast receiver holds
 * the only one and take() never copies.
 */
struct Delivery
{
    Panda *panda;
    Envelope env;
    Rank dst;

    void
    operator()()
    {
        sim::Channel<Message> &box = panda->mailbox(dst, env.header().tag);
        box.send(Message(std::move(env), dst));
    }
};

// Scheduling a delivery must not allocate beyond the envelope itself.
static_assert(sim::EventFn::fitsInline<Delivery>,
              "delivery closure must fit EventFn's inline buffer");

} // namespace

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
                     Envelope env)
{
    env.header() = {src, tag, reply_tag, wire_bytes};
    if (reliable_)
        reliable_->send(src, dst, wire_bytes,
                        Delivery{this, std::move(env), dst});
    else
        fabric_.send(src, dst, wire_bytes,
                     Delivery{this, std::move(env), dst});
}

void
Panda::send(Rank src, Rank dst, int tag, std::uint64_t payload_bytes,
            Envelope payload)
{
    ++sendCount_;
    injectUnicast(src, dst, tag, payload_bytes + headerBytes, -1,
                  std::move(payload));
}

sim::Task<Message>
Panda::rpc(Rank self, Rank dst, int tag, std::uint64_t payload_bytes,
           Envelope payload)
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
             std::uint64_t payload_bytes, Envelope payload)
{
    TLI_ASSERT(request.replyTag >= 0, "reply to a one-way message");
    send(self, request.src, request.replyTag, payload_bytes,
         std::move(payload));
}

void
Panda::multicast(Rank src, const std::vector<Rank> &dsts, int tag,
                 std::uint64_t payload_bytes, Envelope payload)
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

    payload.header() = {src, tag, -1, wire};
    // One event per member, scheduled right after the fabric call and
    // in member order: same-time events fire in schedule order, so
    // this order is part of the simulated result.
    auto deliverAll = [&](Time at, const std::vector<Rank> &members) {
        for (Rank d : members)
            sim_.scheduleAt(at, Delivery{this, payload, d});
    };
    if (!local.empty()) {
        ++sendCount_;
        deliverAll(fabric_.multicastLocal(src, local, wire), local);
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
                reliable_->send(src, d, wire, Delivery{this, payload, d});
            }
        } else {
            ++sendCount_;
            if (std::optional<Time> at = fabric_.multicastToCluster(
                    src, cluster, members, wire))
                deliverAll(*at, members);
        }
    }
}

} // namespace tli::panda
