#include "core/cluster_cache.h"

#include <utility>

namespace tli::core {

namespace {

/** Sentinel epoch used as the server poison pill. */
constexpr std::int64_t stopEpoch = -1;

} // namespace

ClusterCache::ClusterCache(panda::Panda &panda, int tag_base,
                           double wire_scale)
    : panda_(panda), tagBase_(tag_base), wireScale_(wire_scale)
{
    const int n = panda_.topology().totalRanks();
    coord_.resize(n);
    provider_.resize(n);
}

void
ClusterCache::startServers(Rank rank)
{
    panda_.simulation().spawn(coordinatorServer(rank));
    panda_.simulation().spawn(providerServer(rank));
}

void
ClusterCache::publish(Rank self, std::int64_t epoch, magpie::Vec data)
{
    ProviderState &st = provider_[self];
    auto waiting = st.waiting.find(epoch);
    if (waiting != st.waiting.end()) {
        for (const panda::Message &req : waiting->second)
            panda_.reply(self, req, scaled(magpie::wireSize(data)), data);
        st.waiting.erase(waiting);
    }
    st.published[epoch] = std::move(data);
    // Keep a two-epoch window.
    while (!st.published.empty() &&
           st.published.begin()->first < epoch - 1) {
        st.published.erase(st.published.begin());
    }
}

sim::Task<magpie::Vec>
ClusterCache::get(Rank self, Rank peer, std::int64_t epoch)
{
    const auto &topo = panda_.topology();
    Key key{epoch, peer};
    if (topo.sameCluster(self, peer)) {
        // Local data is fetched straight from the owner.
        panda::Message reply = co_await panda_.rpc(
            self, peer, providerTag(), sizeof(Key), key);
        co_return reply.take<magpie::Vec>();
    }
    Rank coordinator = topo.coordinatorFor(topo.clusterOf(self), peer);
    panda::Message reply = co_await panda_.rpc(
        self, coordinator, requestTag(), sizeof(Key), key);
    co_return reply.take<magpie::Vec>();
}

sim::Task<magpie::Vec>
ClusterCache::getDirect(Rank self, Rank peer, std::int64_t epoch)
{
    Key key{epoch, peer};
    panda::Message reply = co_await panda_.rpc(
        self, peer, providerTag(), sizeof(Key), key);
    co_return reply.take<magpie::Vec>();
}

sim::Task<void>
ClusterCache::coordinatorServer(Rank self)
{
    CoordState &st = coord_[self];
    for (;;) {
        panda::Message req = co_await panda_.recv(self, requestTag());
        Key key = req.as<Key>();
        if (key.epoch == stopEpoch)
            co_return;

        auto hit = st.cache.find(key);
        if (hit != st.cache.end()) {
            panda_.reply(self, req,
                         scaled(magpie::wireSize(hit->second)),
                         hit->second);
            continue;
        }
        st.pending[key].push_back(std::move(req));
        if (!st.inFlight[key]) {
            st.inFlight[key] = true;
            panda_.simulation().spawn(fetchAndAnswer(self, key));
        }
    }
}

sim::Task<void>
ClusterCache::fetchAndAnswer(Rank self, Key key)
{
    panda::Message reply = co_await panda_.rpc(
        self, key.peer, providerTag(), sizeof(Key), key);
    ++upstreamFetches_;
    magpie::Vec data = reply.take<magpie::Vec>();

    CoordState &st = coord_[self];
    for (const panda::Message &req : st.pending[key])
        panda_.reply(self, req, scaled(magpie::wireSize(data)), data);
    st.pending.erase(key);
    st.inFlight.erase(key);
    st.cache[key] = std::move(data);
    // Keep a two-epoch window.
    while (!st.cache.empty() &&
           st.cache.begin()->first.epoch < key.epoch - 1) {
        st.cache.erase(st.cache.begin());
    }
}

sim::Task<void>
ClusterCache::providerServer(Rank self)
{
    ProviderState &st = provider_[self];
    for (;;) {
        panda::Message req = co_await panda_.recv(self, providerTag());
        Key key = req.as<Key>();
        if (key.epoch == stopEpoch)
            co_return;

        auto hit = st.published.find(key.epoch);
        if (hit != st.published.end()) {
            panda_.reply(self, req,
                         scaled(magpie::wireSize(hit->second)),
                         hit->second);
        } else {
            st.waiting[key.epoch].push_back(std::move(req));
        }
    }
}

void
ClusterCache::shutdown(Rank self)
{
    const int n = panda_.topology().totalRanks();
    Key poison{stopEpoch, invalidNode};
    for (Rank r = 0; r < n; ++r) {
        panda_.send(self, r, requestTag(), sizeof(Key), poison);
        panda_.send(self, r, providerTag(), sizeof(Key), poison);
    }
}

} // namespace tli::core
