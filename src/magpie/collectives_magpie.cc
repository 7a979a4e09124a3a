#include "magpie/collectives_magpie.h"

#include <algorithm>
#include <utility>

namespace tli::magpie {

MagpieCollectives::Chunking::Chunking(std::size_t elems,
                                     std::uint32_t segBytes)
    : elemsPerChunk(std::max<std::size_t>(1, segBytes / sizeof(double))),
      count(elems == 0 ? 1
                       : static_cast<int>((elems + elemsPerChunk - 1) /
                                          elemsPerChunk))
{
}

Vec
MagpieCollectives::Chunking::chunk(const Vec &v, int j) const
{
    const std::size_t begin =
        std::min(v.size(), static_cast<std::size_t>(j) * elemsPerChunk);
    const std::size_t end = std::min(v.size(), begin + elemsPerChunk);
    return Vec(v.begin() + static_cast<std::ptrdiff_t>(begin),
               v.begin() + static_cast<std::ptrdiff_t>(end));
}

sim::Task<Vec>
MagpieCollectives::bcastTree(Rank self, int wan_tag, int local_tag,
                             Rank root, Vec data, Choice rootChoice)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const ClusterId root_cluster = t.clusterOf(root);
    const auto members = t.ranksInCluster(mine);
    const Rank local_root = (mine == root_cluster) ? root : coordOf(mine);
    const TreePosition pos = treePosition(members, local_root, self);

    // Pass one message on: from the root, one asynchronous wide-area
    // copy per remote cluster (they proceed in parallel on the
    // per-cluster-pair links); from every rank, one copy per child.
    auto forward = [&](const auto &payload) {
        if (self == root) {
            for (ClusterId c = 0; c < t.clusterCount(); ++c) {
                if (c != root_cluster)
                    sendAny(self, coordOf(c), wan_tag, payload);
            }
        }
        for (int i = 0; i < pos.childCount; ++i)
            sendAny(self, pos.child(members, i), local_tag, payload);
    };

    if (self == root) {
        if (rootChoice.family == Family::magpie) {
            forward(data);
            co_return data;
        }
        TLI_ASSERT(rootChoice.family == Family::segmented &&
                       rootChoice.segmentBytes > 0,
                   "bcast root needs a magpie or segmented choice");
        // The label counts the chunks still to come.
        const Chunking ck(data.size(), rootChoice.segmentBytes);
        for (int j = 0; j < ck.count; ++j)
            forward(LabelledVec{ck.count - 1 - j, ck.chunk(data, j)});
        co_return data;
    }

    // Remote coordinators feed from the wide area; everyone else from
    // their binomial parent inside the cluster.
    const int recv_tag = (self == local_root) ? wan_tag : local_tag;
    panda::Message first = co_await panda_.recv(self, recv_tag);
    if (first.holds<Vec>()) {
        Vec full = first.take<Vec>();
        forward(full);
        co_return full;
    }
    // Segmented stream: forward each chunk on arrival.
    Vec out;
    LabelledVec lv = first.take<LabelledVec>();
    for (;;) {
        forward(lv);
        out.insert(out.end(), lv.second.begin(), lv.second.end());
        if (lv.first == 0)
            break;
        lv = co_await recvAny<LabelledVec>(self, recv_tag);
    }
    co_return out;
}

sim::Task<Vec>
MagpieCollectives::reducePhased(Rank self, int local_tag, int wan_tag,
                                Rank root, Vec contrib, ReduceOp op)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const ClusterId root_cluster = t.clusterOf(root);

    Rank local_root = (mine == root_cluster) ? root : coordOf(mine);
    Vec partial = co_await reduceOver(self, local_tag,
                                      t.ranksInCluster(mine), local_root,
                                      std::move(contrib), op);

    if (self == local_root && mine != root_cluster) {
        // One wide-area message per remote cluster, straight to root.
        sendAny(self, root, wan_tag, std::move(partial));
        co_return Vec{};
    }
    if (self == root) {
        for (int i = 0; i < t.clusterCount() - 1; ++i) {
            Vec remote = co_await recvAny<Vec>(self, wan_tag);
            op.combine(partial, remote);
        }
        co_return partial;
    }
    co_return Vec{};
}

sim::Task<void>
MagpieCollectives::barrier(Rank self, int seq)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const Rank coord = coordOf(mine);
    const Rank coord0 = coordOf(0);
    const int procs = t.procsPerCluster();
    const int clusters = t.clusterCount();

    const int local_up = tagFor(seq, 0);
    const int wan_up = tagFor(seq, 1);
    const int wan_down = tagFor(seq, 2);
    const int local_down = tagFor(seq, 3);

    if (self != coord) {
        sendAny(self, coord, local_up, Vec{});
        (void)co_await recvAny<Vec>(self, local_down);
        co_return;
    }

    // Coordinator: collect the local cluster...
    for (int i = 0; i < procs - 1; ++i)
        (void)co_await recvAny<Vec>(self, local_up);

    // ...synchronize the coordinators through cluster 0...
    if (self != coord0) {
        sendAny(self, coord0, wan_up, Vec{});
        (void)co_await recvAny<Vec>(self, wan_down);
    } else {
        for (int i = 0; i < clusters - 1; ++i)
            (void)co_await recvAny<Vec>(self, wan_up);
        for (ClusterId c = 1; c < clusters; ++c)
            sendAny(self, coordOf(c), wan_down, Vec{});
    }

    // ...and release the local cluster.
    for (Rank r : t.ranksInCluster(mine)) {
        if (r != self)
            sendAny(self, r, local_down, Vec{});
    }
}

sim::Task<Vec>
MagpieCollectives::bcast(Rank self, int seq, Rank root, Vec data)
{
    co_return co_await bcastTree(self, tagFor(seq, 0), tagFor(seq, 1),
                                 root, std::move(data), Choice::magpie());
}

sim::Task<Vec>
MagpieCollectives::reduce(Rank self, int seq, Rank root, Vec contrib,
                          ReduceOp op)
{
    co_return co_await reducePhased(self, tagFor(seq, 0), tagFor(seq, 1),
                                    root, std::move(contrib), op);
}

sim::Task<Vec>
MagpieCollectives::allreduce(Rank self, int seq, Vec contrib, ReduceOp op)
{
    Vec total = co_await reducePhased(self, tagFor(seq, 0),
                                      tagFor(seq, 1), 0,
                                      std::move(contrib), op);
    co_return co_await bcastTree(self, tagFor(seq, 2), tagFor(seq, 3), 0,
                                 std::move(total), Choice::magpie());
}

sim::Task<Table>
MagpieCollectives::gather(Rank self, int seq, Rank root, Vec contrib)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const ClusterId root_cluster = t.clusterOf(root);
    const int procs = t.procsPerCluster();

    const int local_tag = tagFor(seq, 0);
    const int wan_tag = tagFor(seq, 1);

    if (mine == root_cluster) {
        if (self != root) {
            sendAny(self, root, local_tag,
                    LabelledVec{self, std::move(contrib)});
            co_return Table{};
        }
        Table out(size());
        out[root] = std::move(contrib);
        for (int i = 0; i < procs - 1; ++i) {
            LabelledVec lv = co_await recvAny<LabelledVec>(self,
                                                           local_tag);
            out[lv.first] = std::move(lv.second);
        }
        for (int c = 0; c < t.clusterCount() - 1; ++c) {
            Bundle b = co_await recvAny<Bundle>(self, wan_tag);
            for (auto &lv : b)
                out[lv.first] = std::move(lv.second);
        }
        co_return out;
    }

    const Rank coord = coordOf(mine);
    if (self != coord) {
        sendAny(self, coord, local_tag,
                LabelledVec{self, std::move(contrib)});
        co_return Table{};
    }
    Bundle bundle;
    bundle.emplace_back(self, std::move(contrib));
    for (int i = 0; i < procs - 1; ++i)
        bundle.push_back(co_await recvAny<LabelledVec>(self, local_tag));
    // The whole cluster's data crosses the wide area exactly once.
    sendAny(self, root, wan_tag, std::move(bundle));
    co_return Table{};
}

sim::Task<Vec>
MagpieCollectives::scatter(Rank self, int seq, Rank root, Table chunks)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const ClusterId root_cluster = t.clusterOf(root);

    const int wan_tag = tagFor(seq, 0);
    const int local_tag = tagFor(seq, 1);

    if (self == root) {
        TLI_ASSERT(static_cast<int>(chunks.size()) == size(),
                   "scatter needs one chunk per rank");
        for (ClusterId c = 0; c < t.clusterCount(); ++c) {
            if (c == root_cluster)
                continue;
            Bundle bundle;
            for (Rank m : t.ranksInCluster(c))
                bundle.emplace_back(m, std::move(chunks[m]));
            sendAny(self, coordOf(c), wan_tag, std::move(bundle));
        }
        for (Rank m : t.ranksInCluster(root_cluster)) {
            if (m != root)
                sendAny(self, m, local_tag, std::move(chunks[m]));
        }
        co_return std::move(chunks[root]);
    }

    if (isCoord(self) && mine != root_cluster) {
        Bundle bundle = co_await recvAny<Bundle>(self, wan_tag);
        Vec own;
        for (auto &lv : bundle) {
            if (lv.first == self)
                own = std::move(lv.second);
            else
                sendAny(self, lv.first, local_tag, std::move(lv.second));
        }
        co_return own;
    }

    co_return co_await recvAny<Vec>(self, local_tag);
}

sim::Task<Table>
MagpieCollectives::allgather(Rank self, int seq, Vec contrib)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const Rank coord = coordOf(mine);
    const int procs = t.procsPerCluster();
    const int clusters = t.clusterCount();

    const int local_up = tagFor(seq, 0);
    const int wan_xchg = tagFor(seq, 1);
    const int local_down = tagFor(seq, 2);

    if (self != coord) {
        sendAny(self, coord, local_up,
                LabelledVec{self, std::move(contrib)});
        co_return co_await bcastOver(self, local_down,
                                     t.ranksInCluster(mine), coord,
                                     Table{});
    }

    Bundle bundle;
    bundle.emplace_back(self, std::move(contrib));
    for (int i = 0; i < procs - 1; ++i)
        bundle.push_back(co_await recvAny<LabelledVec>(self, local_up));

    // All-to-all among coordinators: each cluster's data crosses each
    // wide-area link exactly once, in parallel.
    for (ClusterId c = 0; c < clusters; ++c) {
        if (c != mine)
            sendAny(self, coordOf(c), wan_xchg, bundle);
    }
    Table out(size());
    for (auto &lv : bundle)
        out[lv.first] = std::move(lv.second);
    for (int i = 0; i < clusters - 1; ++i) {
        Bundle remote = co_await recvAny<Bundle>(self, wan_xchg);
        for (auto &lv : remote)
            out[lv.first] = std::move(lv.second);
    }
    co_return co_await bcastOver(self, local_down,
                                 t.ranksInCluster(mine), coord,
                                 std::move(out));
}

sim::Task<Table>
MagpieCollectives::alltoall(Rank self, int seq, Table sendbuf)
{
    const auto &t = topo();
    const int p = size();
    TLI_ASSERT(static_cast<int>(sendbuf.size()) == p,
               "alltoall needs one row per rank");
    const ClusterId mine = t.clusterOf(self);
    const int procs = t.procsPerCluster();

    const int local_tag = tagFor(seq, 0);
    const int wan_tag = tagFor(seq, 1);
    const int fwd_tag = tagFor(seq, 2);

    Table out(p);
    out[self] = std::move(sendbuf[self]);

    // Direct transfers inside the cluster.
    for (Rank m : t.ranksInCluster(mine)) {
        if (m != self)
            sendAny(self, m, local_tag,
                    LabelledVec{self, std::move(sendbuf[m])});
    }
    // Sender-side combining: everything for cluster c leaves in one
    // wide-area message to c's coordinator.
    for (ClusterId c = 0; c < t.clusterCount(); ++c) {
        if (c == mine)
            continue;
        RoutedBundle bundle;
        for (Rank m : t.ranksInCluster(c))
            bundle.push_back(RoutedVec{self, m, std::move(sendbuf[m])});
        sendAny(self, coordOf(c), wan_tag, std::move(bundle));
    }

    int expected_forwarded = p - procs;
    if (isCoord(self)) {
        // Dispatch incoming bundles to their final destinations.
        for (int i = 0; i < p - procs; ++i) {
            RoutedBundle bundle = co_await recvAny<RoutedBundle>(self,
                                                                 wan_tag);
            for (auto &rv : bundle) {
                if (rv.dst == self) {
                    out[rv.src] = std::move(rv.data);
                    --expected_forwarded;
                } else {
                    sendAny(self, rv.dst, fwd_tag,
                            LabelledVec{rv.src, std::move(rv.data)});
                }
            }
        }
    }
    for (int i = 0; i < procs - 1; ++i) {
        LabelledVec lv = co_await recvAny<LabelledVec>(self, local_tag);
        out[lv.first] = std::move(lv.second);
    }
    if (!isCoord(self)) {
        for (int i = 0; i < expected_forwarded; ++i) {
            LabelledVec lv = co_await recvAny<LabelledVec>(self, fwd_tag);
            out[lv.first] = std::move(lv.second);
        }
    }
    co_return out;
}

sim::Task<Vec>
MagpieCollectives::scan(Rank self, int seq, Vec contrib, ReduceOp op)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const auto members = t.ranksInCluster(mine);
    const int procs = static_cast<int>(members.size());
    const int my_idx = t.indexInCluster(self);

    // Phases 0..19: local recursive-doubling scan rounds.
    // Phase 20: wide-area chain of cluster prefixes.
    // Phase 21: local broadcast of the cluster offset.
    const int chain_tag = tagFor(seq, 20);
    const int offset_tag = tagFor(seq, 21);

    Vec result = contrib;
    Vec partial = std::move(contrib);
    int round = 0;
    for (int dist = 1; dist < procs; dist <<= 1, ++round) {
        const int tag = tagFor(seq, round);
        if (my_idx + dist < procs)
            sendAny(self, members[my_idx + dist], tag, partial);
        if (my_idx - dist >= 0) {
            Vec lower = co_await recvAny<Vec>(self, tag);
            op.combine(partial, lower);
            op.combine(result, lower);
        }
    }
    // result = inclusive prefix within the cluster; the last member's
    // copy is the cluster total.
    const Rank chain_node = members.back();
    Vec cluster_offset; // combined total of all preceding clusters

    if (self == chain_node) {
        Vec through_me = result; // will become prefix through cluster
        if (mine > 0) {
            cluster_offset = co_await recvAny<Vec>(self, chain_tag);
            op.combine(through_me, cluster_offset);
        }
        if (mine + 1 < t.clusterCount()) {
            Rank next = t.ranksInCluster(mine + 1).back();
            sendAny(self, next, chain_tag, std::move(through_me));
        }
    }
    if (mine > 0) {
        cluster_offset = co_await bcastOver(self, offset_tag, members,
                                            chain_node,
                                            std::move(cluster_offset));
        op.combine(result, cluster_offset);
    }
    co_return result;
}

sim::Task<Vec>
MagpieCollectives::reduceScatter(Rank self, int seq, Table contrib,
                                 ReduceOp op)
{
    const auto &t = topo();
    const int p = size();
    TLI_ASSERT(static_cast<int>(contrib.size()) == p,
               "reduceScatter needs one row per destination rank");
    const ClusterId mine = t.clusterOf(self);
    const Rank coord = coordOf(mine);
    const auto members = t.ranksInCluster(mine);

    const int local_up = tagFor(seq, 0);
    const int wan_tag = tagFor(seq, 1);
    const int local_down = tagFor(seq, 2);

    // Local reduction of the full table to the coordinator.
    Table partial = co_await reduceOver(self, local_up, members, coord,
                                        std::move(contrib), op);

    if (self != coord)
        co_return co_await recvAny<Vec>(self, local_down);

    // Ship combined per-cluster slices: one wide-area message per pair.
    for (ClusterId c = 0; c < t.clusterCount(); ++c) {
        if (c == mine)
            continue;
        Bundle bundle;
        for (Rank m : t.ranksInCluster(c))
            bundle.emplace_back(m, std::move(partial[m]));
        sendAny(self, coordOf(c), wan_tag, std::move(bundle));
    }
    for (int i = 0; i < t.clusterCount() - 1; ++i) {
        Bundle remote = co_await recvAny<Bundle>(self, wan_tag);
        for (auto &lv : remote)
            op.combine(partial[lv.first], lv.second);
    }
    for (Rank m : members) {
        if (m != self)
            sendAny(self, m, local_down, std::move(partial[m]));
    }
    co_return std::move(partial[self]);
}

} // namespace tli::magpie
