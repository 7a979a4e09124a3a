/**
 * @file
 * CollectivePolicy: the spec round trip (the one spelling shared by
 * --collectives, the JSON reports and Scenario::fingerprint()),
 * parse-error rejection, the dispatch-key rule, the phase budget
 * derivation, and value-type equality.
 */

#include "magpie/policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "magpie/tuning.h"

namespace tli::magpie {
namespace {

TEST(PolicySpec, DefaultIsFlatAndRoundTrips)
{
    CollectivePolicy p;
    EXPECT_TRUE(p.isDefault());
    EXPECT_EQ(p.spec(), "flat");
    auto back = parseCollectivePolicy(p.spec());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
    EXPECT_EQ(CollectivePolicy::flat(), p);
}

TEST(PolicySpec, MagpieHeadRoundTrips)
{
    CollectivePolicy p = CollectivePolicy::magpie();
    EXPECT_FALSE(p.isDefault());
    EXPECT_EQ(p.spec(), "magpie");
    auto back = parseCollectivePolicy("magpie");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
    for (int i = 0; i < kOpCount; ++i)
        EXPECT_EQ(p.choice(static_cast<Op>(i)), Choice::magpie());
}

TEST(PolicySpec, OverridesRenderInOpOrderAndRoundTrip)
{
    CollectivePolicy p = CollectivePolicy::magpie();
    p.set(Op::bcast, Choice::segmented(16 * 1024));
    p.set(Op::barrier, Choice::flat());
    EXPECT_EQ(p.spec(), "magpie,barrier=flat,bcast=seg:16k");
    auto back = parseCollectivePolicy(p.spec());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
    EXPECT_EQ(back->choice(Op::bcast), Choice::segmented(16384));
}

TEST(PolicySpec, HeadIsTheMajorityFamily)
{
    // More magpie than flat: the head flips, overrides shrink.
    CollectivePolicy p;
    for (int i = 0; i < kOpCount; ++i) {
        if (i != static_cast<int>(Op::scan))
            p.set(static_cast<Op>(i), Choice::magpie());
    }
    EXPECT_EQ(p.spec(), "magpie,scan=flat");
    auto back = parseCollectivePolicy(p.spec());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
}

TEST(PolicySpec, SegmentSizesRenderCanonically)
{
    EXPECT_EQ(Choice::segmented(1000).spec(), "seg:1000");
    EXPECT_EQ(Choice::segmented(1024).spec(), "seg:1k");
    EXPECT_EQ(Choice::segmented(16384).spec(), "seg:16k");
    EXPECT_EQ(Choice::segmented(1024 * 1024).spec(), "seg:1M");
    EXPECT_EQ(parseChoice("seg:16K"), Choice::segmented(16384));
    EXPECT_EQ(parseChoice("seg:2M"), Choice::segmented(2u << 20));
    EXPECT_EQ(parseChoice("seg:512"), Choice::segmented(512));
}

TEST(PolicySpec, ParseRejectsMalformedInput)
{
    EXPECT_FALSE(parseCollectivePolicy("").has_value());
    EXPECT_FALSE(parseCollectivePolicy("mpich").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,bcast").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,bcast=turbo").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,warp=magpie").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,bcast=seg:").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,bcast=seg:0").has_value());
    EXPECT_FALSE(parseCollectivePolicy("flat,bcast=seg:4x").has_value());
    // Segmented variants exist only for bcast/reduce/allreduce.
    EXPECT_FALSE(
        parseCollectivePolicy("flat,barrier=seg:1k").has_value());
    // Tuned policies are reconstructed from their table file, never
    // parsed from the spec.
    EXPECT_FALSE(
        parseCollectivePolicy("tuned:0123456789abcdef").has_value());
}

TEST(PolicySpec, SegmentedSupportIsExactlyThreeOps)
{
    int supported = 0;
    for (int i = 0; i < kOpCount; ++i)
        supported += segmentedSupported(static_cast<Op>(i)) ? 1 : 0;
    EXPECT_EQ(supported, 3);
    EXPECT_TRUE(segmentedSupported(Op::bcast));
    EXPECT_TRUE(segmentedSupported(Op::reduce));
    EXPECT_TRUE(segmentedSupported(Op::allreduce));
}

TEST(PolicySpec, ExactlySixOpsKeyOnOneAggregateCell)
{
    // Tuning tables and the dispatch log depend on this list: a tuned
    // table trained under one rule is misread under another.
    std::vector<std::string> aggregate;
    for (int i = 0; i < kOpCount; ++i) {
        const Op op = static_cast<Op>(i);
        if (!keyedBySize(op))
            aggregate.emplace_back(opName(op));
    }
    EXPECT_EQ(aggregate,
              (std::vector<std::string>{"barrier", "gatherv", "scatter",
                                        "scatterv", "allgatherv",
                                        "alltoallv"}));
}

TEST(PolicyPhases, LegacyBudgetCoversEveryStaticPolicyAt160Ranks)
{
    // The Communicator clamps its per-call tag spacing below at the
    // historical 160, so any policy needing fewer phases keeps every
    // existing tag value bit-identical. All static families fit at
    // machines up to 152 ranks (flat alltoall needs p phases).
    for (const CollectivePolicy &p :
         {CollectivePolicy::flat(), CollectivePolicy::magpie()}) {
        EXPECT_LE(p.phasesPerCall(152), 160) << p.spec();
    }
    CollectivePolicy seg = CollectivePolicy::magpie();
    seg.set(Op::bcast, Choice::segmented(1024));
    seg.set(Op::reduce, Choice::segmented(1024));
    seg.set(Op::allreduce, Choice::segmented(1024));
    EXPECT_LE(seg.phasesPerCall(152), 160);
}

TEST(PolicyPhases, FlatAlltoallScalesWithRanks)
{
    CollectivePolicy flat;
    EXPECT_EQ(flat.phasesPerCall(1000), 1000);
    // MagPIe's budget is rank-independent (the scan chain dominates).
    EXPECT_EQ(CollectivePolicy::magpie().phasesPerCall(1000), 22);
}

TEST(PolicyEquality, DiffersByOneChoice)
{
    CollectivePolicy a = CollectivePolicy::magpie();
    CollectivePolicy b = a;
    EXPECT_TRUE(a == b);
    b.set(Op::bcast, Choice::segmented(4096));
    EXPECT_TRUE(a != b);
    b.set(Op::bcast, Choice::magpie());
    EXPECT_TRUE(a == b);
}

TEST(PolicyTuned, SpecCarriesContentHashAndBindingWorks)
{
    auto table = std::make_shared<TuningTable>();
    table->clusters = 2;
    table->procsPerCluster = 2;
    table->gaps = {{6.0, 0.5}, {1.0, 100.0}};
    table->cells.resize(2);
    for (auto &ops : table->cells) {
        for (int i = 0; i < kOpCount; ++i)
            ops[i].push_back({0, Choice::magpie()});
    }
    table->finalize();

    CollectivePolicy p = CollectivePolicy::tuned(table);
    EXPECT_TRUE(p.isTuned());
    EXPECT_FALSE(p.isDefault());
    EXPECT_FALSE(p.bound());
    EXPECT_EQ(p.spec().substr(0, 6), "tuned:");
    EXPECT_EQ(p.spec().size(), 6u + 16u);

    CollectivePolicy near = p.boundTo(5.0, 0.4);
    EXPECT_TRUE(near.bound());
    EXPECT_EQ(near.gapIndex(), 0);
    CollectivePolicy far = p.boundTo(0.9, 80.0);
    EXPECT_EQ(far.gapIndex(), 1);

    // Equality on tuned policies is content + binding, not pointer.
    EXPECT_TRUE(p == CollectivePolicy::tuned(table));
    EXPECT_TRUE(p != near);
    EXPECT_TRUE(near == p.boundTo(6.0, 0.5));
}

} // namespace
} // namespace tli::magpie
