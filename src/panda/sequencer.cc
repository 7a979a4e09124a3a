#include "panda/sequencer.h"

#include <utility>
#include <vector>

#include "sim/trace.h"

namespace tli::panda {

SequencerService::SequencerService(Panda &panda, int tag,
                                   Rank initial_host)
    : panda_(panda), tag_(tag), initialHost_(initial_host)
{
}

void
SequencerService::startServer(Rank rank)
{
    panda_.simulation().spawn(server(rank));
}

sim::Task<void>
SequencerService::server(Rank self)
{
    bool active = (self == initialHost_);
    std::int64_t counter = 0;
    std::deque<Message> pending;

    for (;;) {
        Message m = co_await panda_.recv(self, tag_);
        const Ctl &ctl = m.as<Ctl>();
        switch (ctl.kind) {
          case Kind::request:
            if (active) {
                ++issued_;
                panda_.reply(self, m, sizeof(std::int64_t), counter++);
            } else {
                // Raced ahead of the activation message; defer.
                pending.push_back(std::move(m));
            }
            break;

          case Kind::migrate: {
            TLI_ASSERT(active, "migrate request at an inactive host");
            active = false;
            panda_.send(self, ctl.target, tag_, sizeof(Ctl),
                        Ctl{Kind::activate, invalidNode, counter});
            panda_.reply(self, m, 0, Ctl{Kind::activate});
            break;
          }

          case Kind::activate:
            active = true;
            counter = ctl.counter;
            while (!pending.empty()) {
                Message req = std::move(pending.front());
                pending.pop_front();
                ++issued_;
                panda_.reply(self, req, sizeof(std::int64_t), counter++);
            }
            break;

          case Kind::stop:
            co_return;
        }
    }
}

sim::Task<std::int64_t>
SequencerService::acquire(Rank self, Rank host)
{
    sim::PhaseScope span(panda_.simulation(), self, "sequencer");
    Message reply = co_await panda_.rpc(self, host, tag_, sizeof(Ctl),
                                        Ctl{Kind::request});
    co_return reply.as<std::int64_t>();
}

sim::Task<void>
SequencerService::migrate(Rank self, Rank from, Rank to)
{
    co_await panda_.rpc(self, from, tag_, sizeof(Ctl),
                        Ctl{Kind::migrate, to, 0});
}

void
SequencerService::shutdown(Rank self)
{
    const int n = panda_.topology().totalRanks();
    for (Rank r = 0; r < n; ++r)
        panda_.send(self, r, tag_, sizeof(Ctl), Ctl{Kind::stop});
}

} // namespace tli::panda
