#include "core/two_level_reduce.h"

#include <utility>

#include "sim/trace.h"

namespace tli::core {

namespace {

constexpr std::int64_t stopEpoch = -1;

} // namespace

TwoLevelReducer::TwoLevelReducer(panda::Panda &panda, int tag_base,
                                 magpie::ReduceOp op, double wire_scale)
    : panda_(panda), tagBase_(tag_base), op_(std::move(op)),
      wireScale_(wire_scale)
{
    slots_.resize(panda_.topology().totalRanks());
    earlyPartials_.resize(panda_.topology().totalRanks());
}

void
TwoLevelReducer::startServer(Rank rank)
{
    panda_.simulation().spawn(combinerServer(rank));
}

void
TwoLevelReducer::contribute(Rank self, Rank dst, std::int64_t epoch,
                            magpie::Vec data, int expected_local)
{
    TLI_ASSERT(expected_local >= 1, "expected_local must be positive");
    const auto &topo = panda_.topology();
    Rank coordinator = topo.coordinatorFor(topo.clusterOf(self), dst);
    Contribution c{dst, epoch, expected_local, std::move(data)};
    const std::uint64_t bytes = scaled(16 + magpie::wireSize(c.data));
    panda_.send(self, coordinator, contribTag(), bytes, std::move(c));
}

sim::Task<void>
TwoLevelReducer::combinerServer(Rank self)
{
    auto &slots = slots_[self];
    for (;;) {
        panda::Message m = co_await panda_.recv(self, contribTag());
        Contribution c = m.take<Contribution>();
        if (c.epoch == stopEpoch)
            co_return;

        Key key{c.epoch, c.dst};
        Slot &slot = slots[key];
        if (slot.received == 0)
            slot.combined = std::move(c.data);
        else
            op_.combine(slot.combined, c.data);
        ++slot.received;
        TLI_ASSERT(slot.received <= c.expectedLocal,
                   "more contributions than announced for dst ", c.dst);
        if (slot.received == c.expectedLocal) {
            // Exactly one partial leaves this cluster for (epoch, dst).
            ++partialsSent_;
            const std::uint64_t bytes =
                scaled(8 + magpie::wireSize(slot.combined));
            panda_.send(self, c.dst, partialTag(), bytes,
                        std::pair<std::int64_t, magpie::Vec>{
                            c.epoch, std::move(slot.combined)});
            slots.erase(key);
        }
    }
}

sim::Task<magpie::Vec>
TwoLevelReducer::collect(Rank self, std::int64_t epoch,
                         int clusters_expected)
{
    sim::PhaseScope span(panda_.simulation(), self, "reduce");
    magpie::Vec total;
    int got = 0;
    auto &early = earlyPartials_[self];
    while (got < clusters_expected) {
        magpie::Vec vec;
        auto buffered = early.find(epoch);
        if (buffered != early.end() && !buffered->second.empty()) {
            vec = std::move(buffered->second.back());
            buffered->second.pop_back();
        } else {
            panda::Message m =
                co_await panda_.recv(self, partialTag());
            auto [e, v] =
                m.take<std::pair<std::int64_t, magpie::Vec>>();
            if (e != epoch) {
                // A fast cluster already reduced a later epoch; park
                // its partial for the future collect().
                TLI_ASSERT(e > epoch, "stale partial for epoch ", e);
                early[e].push_back(std::move(v));
                continue;
            }
            vec = std::move(v);
        }
        if (got == 0)
            total = std::move(vec);
        else
            op_.combine(total, vec);
        ++got;
    }
    if (auto it = early.find(epoch);
        it != early.end() && it->second.empty()) {
        early.erase(it);
    }
    co_return total;
}

void
TwoLevelReducer::shutdown(Rank self)
{
    const int n = panda_.topology().totalRanks();
    for (Rank r = 0; r < n; ++r) {
        panda_.send(self, r, contribTag(), 16,
                    Contribution{invalidNode, stopEpoch, 1, {}});
    }
}

} // namespace tli::core
