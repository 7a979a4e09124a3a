#include "magpie/collectives_segmented.h"

#include <utility>
#include <vector>

namespace tli::magpie {

namespace {

/** How a vector of @p elems doubles splits at @p segBytes granularity.
 *  Always at least one chunk, so empty payloads still flow. */
struct Chunking
{
    std::size_t elemsPerChunk = 1;
    int count = 1;
};

Chunking
chunkingFor(std::size_t elems, std::uint32_t segBytes)
{
    Chunking ck;
    ck.elemsPerChunk = std::max<std::size_t>(1, segBytes / sizeof(double));
    ck.count = elems == 0
                   ? 1
                   : static_cast<int>((elems + ck.elemsPerChunk - 1) /
                                      ck.elemsPerChunk);
    return ck;
}

Vec
chunkOf(const Vec &v, const Chunking &ck, int j)
{
    const std::size_t begin =
        std::min(v.size(), static_cast<std::size_t>(j) * ck.elemsPerChunk);
    const std::size_t end =
        std::min(v.size(), begin + ck.elemsPerChunk);
    return Vec(v.begin() + static_cast<std::ptrdiff_t>(begin),
               v.begin() + static_cast<std::ptrdiff_t>(end));
}

} // namespace

sim::Task<Vec>
SegmentedCollectives::bcast(Rank self, int seq, Rank root, Vec data)
{
    co_return co_await bcastAuto(self, tagFor(seq, 0), tagFor(seq, 1),
                                 root, std::move(data),
                                 Choice::segmented(segmentBytes_));
}

sim::Task<Vec>
SegmentedCollectives::bcastTuned(Rank self, int seq, Rank root, Vec data,
                                 Choice rootChoice)
{
    co_return co_await bcastAuto(self, tagFor(seq, 0), tagFor(seq, 1),
                                 root, std::move(data), rootChoice);
}

sim::Task<Vec>
SegmentedCollectives::bcastAuto(Rank self, int wan_tag, int local_tag,
                                Rank root, Vec data, Choice rootChoice)
{
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const ClusterId root_cluster = t.clusterOf(root);
    const auto members = t.ranksInCluster(mine);
    const Rank local_root = (mine == root_cluster) ? root : coordOf(mine);

    if (self == root) {
        if (rootChoice.family == Family::magpie) {
            // Byte- and timing-identical to MagpieCollectives::bcast.
            for (ClusterId c = 0; c < t.clusterCount(); ++c) {
                if (c != root_cluster)
                    sendAny(self, coordOf(c), wan_tag, data);
            }
            co_return co_await bcastOver(self, local_tag, members, root,
                                         std::move(data));
        }
        TLI_ASSERT(rootChoice.family == Family::segmented &&
                       rootChoice.segmentBytes > 0,
                   "bcast root needs a magpie or segmented choice");
        const Chunking ck = chunkingFor(data.size(),
                                        rootChoice.segmentBytes);
        const std::vector<Rank> children =
            bcastChildren(members, root, self);
        for (int j = 0; j < ck.count; ++j) {
            const LabelledVec lv{ck.count - 1 - j, chunkOf(data, ck, j)};
            for (ClusterId c = 0; c < t.clusterCount(); ++c) {
                if (c != root_cluster)
                    sendAny(self, coordOf(c), wan_tag, lv);
            }
            for (Rank child : children)
                sendAny(self, child, local_tag, lv);
        }
        co_return data;
    }

    // Remote coordinators feed from the wide area; everyone else from
    // their binomial parent inside the cluster.
    const int recv_tag = (self == local_root) ? wan_tag : local_tag;
    panda::Message first = co_await panda_.recv(self, recv_tag);
    const std::vector<Rank> children =
        bcastChildren(members, local_root, self);

    if (first.holds<Vec>()) {
        // Classic protocol: one full-payload message, then forward to
        // the subtree children exactly as bcastOver would.
        Vec full = first.take<Vec>();
        for (Rank child : children)
            sendAny(self, child, local_tag, full);
        co_return full;
    }

    // Segmented stream: forward each labelled chunk on arrival; the
    // label counts the chunks still to come.
    Vec out;
    LabelledVec lv = first.take<LabelledVec>();
    for (;;) {
        for (Rank child : children)
            sendAny(self, child, local_tag, lv);
        out.insert(out.end(), lv.second.begin(), lv.second.end());
        if (lv.first == 0)
            break;
        lv = co_await recvAny<LabelledVec>(self, recv_tag);
    }
    co_return out;
}

sim::Task<Vec>
SegmentedCollectives::reduce(Rank self, int seq, Rank root, Vec contrib,
                             ReduceOp op)
{
    co_return co_await reduceSegmented(self, tagFor(seq, 0),
                                       tagFor(seq, 1), root,
                                       std::move(contrib), op);
}

sim::Task<Vec>
SegmentedCollectives::allreduce(Rank self, int seq, Vec contrib,
                                ReduceOp op)
{
    Vec total = co_await reduceSegmented(self, tagFor(seq, 0),
                                         tagFor(seq, 1), 0,
                                         std::move(contrib), op);
    co_return co_await bcastAuto(self, tagFor(seq, 2), tagFor(seq, 3), 0,
                                 std::move(total),
                                 Choice::segmented(segmentBytes_));
}

sim::Task<Vec>
SegmentedCollectives::reduceSegmented(Rank self, int local_tag,
                                      int wan_tag, Rank root, Vec contrib,
                                      ReduceOp op)
{
    TLI_ASSERT(segmentBytes_ > 0, "segmented reduce needs a segment size");
    const auto &t = topo();
    const ClusterId mine = t.clusterOf(self);
    const ClusterId root_cluster = t.clusterOf(root);
    const auto members = t.ranksInCluster(mine);
    const Rank local_root = (mine == root_cluster) ? root : coordOf(mine);
    const Chunking ck = chunkingFor(contrib.size(), segmentBytes_);
    const TreePosition pos = treePosition(members, local_root, self);

    std::vector<Vec> acc(ck.count);
    for (int j = 0; j < ck.count; ++j)
        acc[j] = chunkOf(contrib, ck, j);
    std::vector<int> got(ck.count, 0);
    int cursor = 0;

    // Emit a completed segment one level up: to the binomial parent, or
    // (at a coordinator) across the wide area straight to the root,
    // which instead keeps its own completed segments.
    auto emit = [&](int j) {
        if (pos.hasParent)
            sendAny(self, pos.parent, local_tag,
                    LabelledVec{j, std::move(acc[j])});
        else if (mine != root_cluster)
            sendAny(self, root, wan_tag,
                    LabelledVec{j, std::move(acc[j])});
    };
    auto flush = [&]() {
        while (cursor < ck.count && got[cursor] == pos.childCount) {
            emit(cursor);
            ++cursor;
        }
    };

    flush();
    for (int i = 0; i < pos.childCount * ck.count; ++i) {
        LabelledVec lv = co_await recvAny<LabelledVec>(self, local_tag);
        TLI_ASSERT(lv.first >= 0 && lv.first < ck.count,
                   "segment index out of range: ", lv.first);
        op.combine(acc[lv.first], lv.second);
        ++got[lv.first];
        flush();
    }

    if (self != root)
        co_return Vec{};

    // Root: fold in every remote cluster's segment stream.
    for (int i = 0; i < (t.clusterCount() - 1) * ck.count; ++i) {
        LabelledVec lv = co_await recvAny<LabelledVec>(self, wan_tag);
        TLI_ASSERT(lv.first >= 0 && lv.first < ck.count,
                   "segment index out of range: ", lv.first);
        op.combine(acc[lv.first], lv.second);
    }
    Vec out;
    out.reserve(contrib.size());
    for (const Vec &seg : acc)
        out.insert(out.end(), seg.begin(), seg.end());
    co_return out;
}

} // namespace tli::magpie
