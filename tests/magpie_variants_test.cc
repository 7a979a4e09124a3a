/**
 * @file
 * Cross-variant equivalence: every algorithm variant of every
 * collective operation (flat, MagPIe, and the segmented ladder where
 * it exists) computes identical results on the 8x4 machine —
 * integer-valued payloads make floating-point sums order-independent,
 * so the comparison is exact. Plus tuned-dispatch identity: a tuned
 * policy whose table decides "magpie" everywhere must be
 * timing-identical to the static MagPIe policy, per collective, and a
 * table that decides by bcast size must match the static policy of
 * each decision, call by call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "magpie/communicator.h"
#include "magpie/tuning.h"
#include "net/config.h"
#include "sim/simulation.h"

namespace tli::magpie {
namespace {

constexpr int kClusters = 8;
constexpr int kProcs = 4;
constexpr int kRanks = kClusters * kProcs;

/**
 * Run one collective under @p policy on the 8x4 machine and flatten
 * every rank's result (in rank order) into one signature vector; also
 * report the completion time. Two variants of the same operation are
 * equivalent iff their signatures are identical.
 */
struct RunOutcome
{
    std::vector<double> signature;
    double completion = 0;
};

RunOutcome
runOp(const CollectivePolicy &policy, const std::string &op, int elems)
{
    sim::Simulation sim;
    net::Topology topo(kClusters, kProcs);
    net::Fabric fabric(sim, topo,
                       net::Profile::das(1.0, 10.0).params());
    panda::Panda panda(sim, fabric);
    Communicator comm(panda, policy);

    std::vector<std::vector<double>> perRank(kRanks);
    auto append = [&](Rank self, const Vec &v) {
        perRank[self].insert(perRank[self].end(), v.begin(), v.end());
    };
    auto appendTable = [&](Rank self, const Table &t) {
        perRank[self].push_back(static_cast<double>(t.size()));
        for (const Vec &row : t)
            append(self, row);
    };

    auto proc = [&](Rank self) -> sim::Task<void> {
        const Rank root = 3; // off-cluster-0 root exercises routing
        Vec data(static_cast<std::size_t>(elems),
                 static_cast<double>(self + 1));
        if (op == "barrier") {
            co_await comm.barrier(self);
            perRank[self].push_back(1.0);
        } else if (op == "bcast") {
            Vec in = self == root ? data : Vec{};
            append(self,
                   co_await comm.bcast(self, root, std::move(in)));
        } else if (op == "reduce") {
            append(self, co_await comm.reduce(self, root,
                                              std::move(data),
                                              ReduceOp::sum()));
        } else if (op == "allreduce") {
            append(self, co_await comm.allreduce(self, std::move(data),
                                                 ReduceOp::sum()));
        } else if (op == "gather") {
            appendTable(self, co_await comm.gather(self, root,
                                                   std::move(data)));
        } else if (op == "gatherv") {
            Vec ragged(static_cast<std::size_t>(self % 3 + 1),
                       static_cast<double>(self));
            appendTable(self, co_await comm.gatherv(
                                  self, root, std::move(ragged)));
        } else if (op == "scatter" || op == "scatterv") {
            Table chunks;
            if (self == root) {
                chunks.resize(kRanks);
                for (Rank r = 0; r < kRanks; ++r) {
                    chunks[r].assign(
                        static_cast<std::size_t>(
                            op == "scatter" ? 2 : r % 3 + 1),
                        static_cast<double>(100 + r));
                }
            }
            // Branch with if/else: co_await inside ?: miscompiles on
            // this GCC (temporary freed before use).
            Vec got;
            if (op == "scatter")
                got = co_await comm.scatter(self, root,
                                            std::move(chunks));
            else
                got = co_await comm.scatterv(self, root,
                                             std::move(chunks));
            append(self, got);
        } else if (op == "allgather") {
            appendTable(self, co_await comm.allgather(
                                  self, std::move(data)));
        } else if (op == "allgatherv") {
            Vec ragged(static_cast<std::size_t>(self % 3 + 1),
                       static_cast<double>(self));
            appendTable(self, co_await comm.allgatherv(
                                  self, std::move(ragged)));
        } else if (op == "alltoall" || op == "alltoallv") {
            Table rows(kRanks);
            for (Rank d = 0; d < kRanks; ++d) {
                rows[d].assign(
                    static_cast<std::size_t>(
                        op == "alltoall" ? 2 : d % 3),
                    static_cast<double>(self * 100 + d));
            }
            Table got;
            if (op == "alltoall")
                got = co_await comm.alltoall(self, std::move(rows));
            else
                got = co_await comm.alltoallv(self, std::move(rows));
            appendTable(self, got);
        } else if (op == "scan") {
            append(self, co_await comm.scan(self, std::move(data),
                                            ReduceOp::sum()));
        } else if (op == "reduce_scatter") {
            Table rows(kRanks);
            for (Rank d = 0; d < kRanks; ++d)
                rows[d].assign(2, static_cast<double>(self + d));
            append(self, co_await comm.reduceScatter(
                             self, std::move(rows), ReduceOp::sum()));
        } else {
            ADD_FAILURE() << "unknown op " << op;
        }
    };
    for (Rank r = 0; r < kRanks; ++r)
        sim.spawn(proc(r));
    sim.run();
    EXPECT_EQ(sim.finishedProcesses(), static_cast<size_t>(kRanks))
        << op << " deadlocked under " << policy.spec();

    RunOutcome out;
    out.completion = sim.now();
    for (const auto &r : perRank) {
        out.signature.insert(out.signature.end(), r.begin(), r.end());
    }
    return out;
}

/** The policy specs applicable to @p op (seg only where supported). */
std::vector<std::string>
variantsFor(Op op)
{
    std::vector<std::string> specs = {"flat", "magpie"};
    if (segmentedSupported(op)) {
        const std::string name = opName(op);
        // A tiny segment forces a many-chunk pipeline; a huge one the
        // single-chunk boundary. The head family is irrelevant to the
        // op under test.
        specs.push_back("magpie," + name + "=seg:256");
        specs.push_back("flat," + name + "=seg:1M");
    }
    return specs;
}

class VariantEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(VariantEquivalence, AllVariantsComputeIdenticalResults)
{
    const Op op = static_cast<Op>(GetParam());
    const std::string name = opName(op);
    for (int elems : {0, 100}) {
        std::vector<double> reference;
        std::string refSpec;
        for (const std::string &spec : variantsFor(op)) {
            auto policy = parseCollectivePolicy(spec);
            ASSERT_TRUE(policy.has_value()) << spec;
            RunOutcome got = runOp(*policy, name, elems);
            if (refSpec.empty()) {
                reference = std::move(got.signature);
                refSpec = spec;
                continue;
            }
            // Integer-valued inputs: sums are exact at any
            // combination order, so equivalence is exact equality.
            EXPECT_EQ(got.signature, reference)
                << name << " elems=" << elems << ": " << spec
                << " diverges from " << refSpec;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, VariantEquivalence, ::testing::Range(0, kOpCount),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(opName(static_cast<Op>(info.param)));
    });

/** A table deciding "magpie" for everything at one gap point. */
std::shared_ptr<const TuningTable>
allMagpieTable()
{
    auto table = std::make_shared<TuningTable>();
    table->clusters = kClusters;
    table->procsPerCluster = kProcs;
    table->gaps = {{1.0, 10.0}};
    table->cells.resize(1);
    for (int i = 0; i < kOpCount; ++i)
        table->cells[0][i].push_back({0, Choice::magpie()});
    table->finalize();
    return table;
}

TEST(TunedDispatch, AllMagpieTableIsTimingIdenticalToStaticMagpie)
{
    // The tuned bcast path routes through the protocol-agnostic
    // receiver; when the table decides "magpie" it must replicate the
    // classic wire protocol exactly — same results, same completion
    // time — and so must every other operation's dispatch.
    const CollectivePolicy tuned =
        CollectivePolicy::tuned(allMagpieTable()).boundTo(1.0, 10.0);
    const CollectivePolicy magpie = CollectivePolicy::magpie();
    for (int i = 0; i < kOpCount; ++i) {
        const std::string name = opName(static_cast<Op>(i));
        RunOutcome t = runOp(tuned, name, 100);
        RunOutcome m = runOp(magpie, name, 100);
        EXPECT_EQ(t.signature, m.signature) << name;
        EXPECT_EQ(t.completion, m.completion) << name;
    }
}

TEST(TunedDispatch, SegmentedDecisionMatchesStaticSegmented)
{
    // A table deciding seg:256 for bcast must behave exactly like the
    // static per-op override at the same segment size.
    auto table = std::make_shared<TuningTable>();
    table->clusters = kClusters;
    table->procsPerCluster = kProcs;
    table->gaps = {{1.0, 10.0}};
    table->cells.resize(1);
    for (int i = 0; i < kOpCount; ++i) {
        const Op op = static_cast<Op>(i);
        table->cells[0][i].push_back(
            {0, segmentedSupported(op) ? Choice::segmented(256)
                                       : Choice::magpie()});
    }
    table->finalize();
    const CollectivePolicy tuned =
        CollectivePolicy::tuned(table).boundTo(1.0, 10.0);
    auto staticSeg = parseCollectivePolicy(
        "magpie,bcast=seg:256,reduce=seg:256,allreduce=seg:256");
    ASSERT_TRUE(staticSeg.has_value());
    for (const char *name : {"bcast", "reduce", "allreduce"}) {
        RunOutcome t = runOp(tuned, name, 100);
        RunOutcome s = runOp(*staticSeg, name, 100);
        EXPECT_EQ(t.signature, s.signature) << name;
        EXPECT_EQ(t.completion, s.completion) << name;
    }
}

/** Per-call outcome of twoBcasts(): each rank's result and finish
 *  time, per call. */
struct TwoBcasts
{
    std::vector<std::vector<Vec>> results{2, std::vector<Vec>(kRanks)};
    std::vector<std::vector<double>> finish{
        2, std::vector<double>(kRanks, 0)};
    std::vector<std::string> dispatchLog;
};

constexpr int kSmallElems = 16;
constexpr int kLargeElems = 2000;

/**
 * One simulation, two bcasts: kSmallElems doubles from rank 1
 * (cluster 0), then kLargeElems from rank 14 (cluster 3). The second
 * call starts at t = 10 s on every rank, long after the first one has
 * drained, so its timing does not depend on how the first was sent.
 */
TwoBcasts
twoBcasts(const CollectivePolicy &policy)
{
    sim::Simulation sim;
    net::Topology topo(kClusters, kProcs);
    net::Fabric fabric(sim, topo,
                       net::Profile::das(1.0, 10.0).params());
    panda::Panda panda(sim, fabric);
    Communicator comm(panda, policy);
    TwoBcasts out;
    auto proc = [&](Rank self) -> sim::Task<void> {
        const Rank roots[2] = {1, 14};
        const int elems[2] = {kSmallElems, kLargeElems};
        for (int call = 0; call < 2; ++call) {
            if (call == 1)
                co_await sim.sleep(10.0 - sim.now());
            Vec in;
            if (self == roots[call])
                in.assign(static_cast<std::size_t>(elems[call]),
                          static_cast<double>(call + 7));
            out.results[call][self] =
                co_await comm.bcast(self, roots[call], std::move(in));
            out.finish[call][self] = sim.now();
        }
    };
    for (Rank r = 0; r < kRanks; ++r)
        sim.spawn(proc(r));
    sim.run();
    EXPECT_EQ(sim.finishedProcesses(), static_cast<size_t>(kRanks))
        << policy.spec();
    EXPECT_LT(*std::max_element(out.finish[0].begin(),
                                out.finish[0].end()),
              10.0);
    out.dispatchLog = comm.dispatchLog();
    return out;
}

TEST(TunedDispatch, SizeDependentBcastMatchesStaticPolicyPerCall)
{
    // Non-root ranks cannot see the size the root's decision keys on:
    // they must follow the magpie call and the seg:256 call alike.
    const std::uint64_t small = wireSize(Vec(kSmallElems));
    const std::uint64_t large = wireSize(Vec(kLargeElems));
    auto table = std::make_shared<TuningTable>();
    table->clusters = kClusters;
    table->procsPerCluster = kProcs;
    table->gaps = {{1.0, 10.0}};
    table->cells.resize(1);
    for (int i = 0; i < kOpCount; ++i)
        table->cells[0][i].push_back({0, Choice::magpie()});
    table->cells[0][static_cast<int>(Op::bcast)] = {
        {small, Choice::magpie()}, {large, Choice::segmented(256)}};
    table->finalize();

    const TwoBcasts tuned =
        twoBcasts(CollectivePolicy::tuned(table).boundTo(1.0, 10.0));
    const TwoBcasts magpie = twoBcasts(CollectivePolicy::magpie());
    auto seg = parseCollectivePolicy("magpie,bcast=seg:256");
    ASSERT_TRUE(seg.has_value());
    const TwoBcasts segmented = twoBcasts(*seg);

    EXPECT_EQ(tuned.results[0], magpie.results[0]);
    EXPECT_EQ(tuned.finish[0], magpie.finish[0]);
    EXPECT_EQ(tuned.results[1], segmented.results[1]);
    EXPECT_EQ(tuned.finish[1], segmented.finish[1]);
    EXPECT_EQ(tuned.results[1][0], Vec(kLargeElems, 8.0));
    EXPECT_EQ(tuned.dispatchLog,
              (std::vector<std::string>{
                  "bcast:" + std::to_string(small) + "=magpie",
                  "bcast:" + std::to_string(large) + "=seg:256"}));
}

} // namespace
} // namespace tli::magpie
