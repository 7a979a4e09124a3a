#include "orca/object_runtime.h"

namespace tli::orca {

namespace {

/** Sequence number used as the applier poison pill. */
constexpr std::int64_t stopSeq = -1;

} // namespace

ObjectRuntime::ObjectRuntime(panda::Panda &panda, int tag_base)
    : panda_(panda), tagBase_(tag_base),
      sequencer_(panda, tag_base, 0)
{
    const int n = panda_.topology().totalRanks();
    replicas_.resize(n);
    appliedThrough_.assign(n, -1);
    reorder_.resize(n);
    seqWaiters_.resize(n);
    guardWaiters_.resize(n);
}

void
ObjectRuntime::startServers(Rank rank)
{
    sequencer_.startServer(rank);
    panda_.simulation().spawn(applierServer(rank));
}

void
ObjectRuntime::shutdown(Rank self)
{
    sequencer_.shutdown(self);
    const int n = panda_.topology().totalRanks();
    for (Rank r = 0; r < n; ++r) {
        panda_.send(self, r, updateTag(), 8,
                    Update{stopSeq, invalidNode, nullptr});
    }
}

sim::Task<void>
ObjectRuntime::writeErased(Rank self, ObjectId obj, ErasedOp op,
                           std::uint64_t wire_bytes)
{
    // One global order for all writes: the classic Orca RTS keeps the
    // sequencer on a fixed node.
    std::int64_t seq = co_await sequencer_.acquire(self, 0);

    Update update{seq, obj,
                  std::make_shared<ErasedOp>(std::move(op))};
    panda_.broadcast(self, updateTag(), wire_bytes, update);
    // The sender's own replica goes through the same ordered applier.
    panda_.send(self, self, updateTag(), wire_bytes,
                std::move(update));

    co_await awaitApplied(self, seq);
}

sim::Task<void>
ObjectRuntime::blockOnWrite(Rank self, ObjectId obj)
{
    auto chan = std::make_shared<sim::Channel<int>>(panda_.simulation());
    guardWaiters_[self][obj].push_back(chan);
    (void)co_await chan->recv();
}

sim::Task<void>
ObjectRuntime::awaitApplied(Rank self, std::int64_t seq)
{
    if (appliedThrough_[self] >= seq)
        co_return;
    auto chan = std::make_shared<sim::Channel<int>>(panda_.simulation());
    seqWaiters_[self].emplace(seq, chan);
    (void)co_await chan->recv();
}

sim::Task<void>
ObjectRuntime::applierServer(Rank self)
{
    auto &buffer = reorder_[self];
    for (;;) {
        panda::Message msg = co_await panda_.recv(self, updateTag());
        Update update = msg.take<Update>();
        if (update.seq == stopSeq)
            co_return;
        buffer.push(update.seq, std::move(update));
        while (buffer.ready())
            applyLocally(self, buffer.pop());
    }
}

void
ObjectRuntime::applyLocally(Rank self, const Update &update)
{
    auto it = replicas_[self].find(update.obj);
    TLI_ASSERT(it != replicas_[self].end(),
               "update for unknown object ", update.obj);
    (*update.op)(it->second);
    appliedThrough_[self] = update.seq;

    // Wake writers waiting for their sequence number...
    auto &waiting = seqWaiters_[self];
    while (!waiting.empty() && waiting.begin()->first <= update.seq) {
        waiting.begin()->second->send(1);
        waiting.erase(waiting.begin());
    }
    // ...and guards parked on this object.
    auto guards = guardWaiters_[self].find(update.obj);
    if (guards != guardWaiters_[self].end()) {
        for (auto &chan : guards->second)
            chan->send(1);
        guardWaiters_[self].erase(guards);
    }
}

} // namespace tli::orca
