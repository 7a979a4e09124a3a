#include "magpie/collectives_segmented.h"

#include <utility>
#include <vector>

namespace tli::magpie {

sim::Task<Vec>
SegmentedCollectives::bcast(Rank self, int seq, Rank root, Vec data)
{
    co_return co_await bcastTree(self, tagFor(seq, 0), tagFor(seq, 1),
                                 root, std::move(data),
                                 Choice::segmented(segmentBytes_));
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
    co_return co_await bcastTree(self, tagFor(seq, 2), tagFor(seq, 3), 0,
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
    const Chunking ck(contrib.size(), segmentBytes_);
    const TreePosition pos = treePosition(members, local_root, self);

    std::vector<Vec> acc(ck.count);
    for (int j = 0; j < ck.count; ++j)
        acc[j] = ck.chunk(contrib, j);
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
