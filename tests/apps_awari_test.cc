/**
 * @file
 * Tests for the Awari application: game rules, state encoding and
 * enumeration, the sequential retrograde solver, and the parallel
 * program.
 */

#include "apps/awari/awari.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/awari/game.h"

namespace tli::apps::awari {
namespace {

Position
fromPits(std::initializer_list<int> pits, int to_move)
{
    Position p;
    int i = 0;
    for (int v : pits)
        p.pits[i++] = static_cast<std::uint8_t>(v);
    p.toMove = to_move;
    return p;
}

TEST(AwariRules, EncodeDecodeRoundTrip)
{
    Position p = fromPits({1, 0, 3, 0, 0, 2, 0, 4, 0, 0, 1, 0}, 1);
    Position q = decode(encode(p));
    EXPECT_EQ(p.pits, q.pits);
    EXPECT_EQ(p.toMove, q.toMove);
}

TEST(AwariRules, SowingDistributesCounterclockwise)
{
    Position p = fromPits({3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
    int captured = -1;
    Position q = applyMove(p, 0, &captured);
    EXPECT_EQ(q.pits[0], 0);
    EXPECT_EQ(q.pits[1], 1);
    EXPECT_EQ(q.pits[2], 1);
    EXPECT_EQ(q.pits[3], 1);
    EXPECT_EQ(captured, 0);
    EXPECT_EQ(q.toMove, 1);
}

TEST(AwariRules, SowingSkipsOriginPit)
{
    // 13 stones from pit 0: should wrap and skip pit 0 itself.
    Position p = fromPits({13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0);
    Position q = applyMove(p, 0, nullptr);
    EXPECT_EQ(q.pits[0], 0);
    // 11 other pits get one each; the remaining 2 wrap to pits 1, 2.
    EXPECT_EQ(q.pits[1], 2);
    EXPECT_EQ(q.pits[2], 2);
    EXPECT_EQ(q.pits[3], 1);
    EXPECT_EQ(q.pits[11], 1);
}

TEST(AwariRules, CaptureOfTwoOrThree)
{
    // Side 0 sows 2 stones from pit 5 into pits 6, 7; pit 7 had 2 ->
    // becomes 3 (capture); pit 6 had 1 -> becomes 2 (capture chains
    // backwards).
    Position p = fromPits({0, 0, 0, 0, 0, 2, 1, 2, 0, 0, 0, 4}, 0);
    int captured = 0;
    Position q = applyMove(p, 5, &captured);
    EXPECT_EQ(captured, 5); // 3 from pit 7 + 2 from pit 6
    EXPECT_EQ(q.pits[6], 0);
    EXPECT_EQ(q.pits[7], 0);
    EXPECT_EQ(q.pits[11], 4);
}

TEST(AwariRules, NoCaptureInOwnRow)
{
    Position p = fromPits({0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 3}, 0);
    int captured = 0;
    Position q = applyMove(p, 3, &captured);
    EXPECT_EQ(captured, 0);
    EXPECT_EQ(q.pits[4], 2);
    EXPECT_EQ(q.pits[5], 1);
}

TEST(AwariRules, GrandSlamForfeited)
{
    // Capturing everything the opponent has is forfeited: the board
    // keeps the sown stones.
    Position p = fromPits({0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0}, 0);
    int captured = 0;
    Position q = applyMove(p, 5, &captured);
    EXPECT_EQ(captured, 0);
    EXPECT_EQ(q.pits[6], 2); // sown but not captured
}

TEST(AwariRules, LegalMovesOnlyFromOwnNonEmptyPits)
{
    Position p = fromPits({1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 1}, 0);
    auto m0 = legalMoves(p);
    EXPECT_EQ(m0, (std::vector<int>{0, 2}));
    p.toMove = 1;
    auto m1 = legalMoves(p);
    EXPECT_EQ(m1, (std::vector<int>{6, 11}));
}

TEST(AwariEnumeration, StageSizesAreBinomials)
{
    // C(k+11, 11) boards, times two sides to move.
    EXPECT_EQ(enumerateStage(0).size(), 2u);
    EXPECT_EQ(enumerateStage(1).size(), 24u);
    EXPECT_EQ(enumerateStage(2).size(), 156u);
    EXPECT_EQ(enumerateStage(3).size(), 728u);
}

TEST(AwariEnumeration, KeysAreUniqueAndOfRightStage)
{
    auto keys = enumerateStage(3);
    std::set<std::uint64_t> unique(keys.begin(), keys.end());
    EXPECT_EQ(unique.size(), keys.size());
    for (auto k : keys)
        EXPECT_EQ(decode(k).stonesOnBoard(), 3);
}

TEST(AwariDenseIndex, StageRankIsTheEnumerationIndex)
{
    for (int k = 0; k <= 8; ++k) {
        const std::vector<std::uint64_t> keys = enumerateStage(k);
        ASSERT_EQ(stageSize(k), keys.size()) << "stage " << k;
        for (std::size_t j = 0; j < keys.size(); ++j) {
            ASSERT_EQ(stonesOf(keys[j]), k);
            ASSERT_EQ(stageRank(keys[j]), j) << "stage " << k;
        }
    }
}

TEST(AwariDenseIndex, CoversTheFullestEncodableStage)
{
    // Boards ascend by pit 0 first, so all 15 stones in the last pit
    // come first and all 15 in pit 0, side 1 to move, come last.
    Position p = fromPits({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 15}, 0);
    EXPECT_EQ(stageRank(encode(p)), 0u);
    p = fromPits({15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1);
    EXPECT_EQ(stageRank(encode(p)), stageSize(maxIndexedStones) - 1);
}

TEST(AwariDenseIndex, RejectsStagesItDoesNotCover)
{
    const std::uint64_t sixteen =
        encode(fromPits({15, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0));
    EXPECT_EQ(stonesOf(sixteen), 16);
    EXPECT_DEATH((void)stageRank(sixteen), "no dense index for 16");
    // Every pit full: far past the table, not only one past it.
    EXPECT_DEATH((void)stageRank(0xFFFFFFFFFFFFULL),
                 "no dense index for 180");
    EXPECT_DEATH((void)stageSize(maxIndexedStones + 1),
                 "no dense index");
    EXPECT_DEATH((void)stageSize(-1), "no dense index");
}

TEST(AwariSolver, ValuesAgreeWithStageCounts)
{
    Solver s(4);
    s.solve();
    for (int k = 0; k <= 4; ++k) {
        StageCounts c;
        for (std::uint64_t key : enumerateStage(k)) {
            switch (s.valueOf(key)) {
              case Value::win:
                ++c.win;
                break;
              case Value::draw:
                ++c.draw;
                break;
              case Value::loss:
                ++c.loss;
                break;
              default:
                ADD_FAILURE() << "unknown value at stage " << k;
            }
        }
        EXPECT_EQ(c, s.stageCounts()[k]) << "stage " << k;
    }
}

TEST(AwariSolver, ValueOfAnUnsolvedStageAsserts)
{
    Solver unsolved(2);
    EXPECT_DEATH((void)unsolved.valueOf(enumerateStage(0)[0]),
                 "unsolved position queried");
    Solver s(2);
    s.solve();
    EXPECT_EQ(s.valueOf(enumerateStage(0)[0]), Value::loss);
    EXPECT_DEATH((void)s.valueOf(enumerateStage(3)[0]),
                 "unsolved position queried");
}

TEST(AwariSolver, EmptyBoardIsLossForMover)
{
    Solver s(0);
    s.solve();
    ASSERT_EQ(s.stageCounts().size(), 1u);
    EXPECT_EQ(s.stageCounts()[0].loss, 2);
    EXPECT_EQ(s.stageCounts()[0].win, 0);
}

TEST(AwariSolver, StageOneValues)
{
    Solver s(1);
    s.solve();
    const StageCounts &c = s.stageCounts()[1];
    EXPECT_EQ(c.win + c.draw + c.loss, 24);
    // With one stone nobody can capture, so the game is decided by
    // starvation. A mover whose row is empty loses immediately (12
    // positions). A mover whose stone is in pits 0..4 (resp. 6..10)
    // sows it within their own row and starves the opponent: 10 wins.
    // A mover whose stone sits in the last pit of their row must sow
    // it into the opponent's row, handing the opponent the win: 2
    // more losses. No draws.
    EXPECT_EQ(c.win, 10);
    EXPECT_EQ(c.loss, 14);
    EXPECT_EQ(c.draw, 0);
}

TEST(AwariSolver, CountsArePlausibleAtStageFour)
{
    Solver s(4);
    s.solve();
    for (int k = 0; k <= 4; ++k) {
        const StageCounts &c = s.stageCounts()[k];
        EXPECT_EQ(c.win + c.draw + c.loss,
                  static_cast<std::int64_t>(enumerateStage(k).size()));
    }
    // By stage 4 some positions are winning (captures exist).
    EXPECT_GT(s.stageCounts()[4].win, 0);
}

TEST(AwariSolver, OwnershipHashCoversAllRanks)
{
    auto keys = enumerateStage(4);
    std::vector<int> hits(8, 0);
    for (auto k : keys)
        ++hits[ownerOf(k, 8)];
    for (int h : hits)
        EXPECT_GT(h, 50); // roughly balanced
}

core::Scenario
smallScenario(int clusters, int procs)
{
    core::Scenario s;
    s.clusters = clusters;
    s.procsPerCluster = procs;
    s.problemScale = 0.1; // 5 stones
    return s;
}

TEST(AwariParallel, UnoptimizedVerifies)
{
    auto r = run(smallScenario(2, 2), false);
    EXPECT_TRUE(r.verified);
}

TEST(AwariParallel, OptimizedVerifies)
{
    auto r = run(smallScenario(2, 2), true);
    EXPECT_TRUE(r.verified);
}

TEST(AwariParallel, FourClusters)
{
    EXPECT_TRUE(run(smallScenario(4, 2), false).verified);
    EXPECT_TRUE(run(smallScenario(4, 2), true).verified);
}

TEST(AwariParallel, ExtraCombiningLayerCutsWanMessages)
{
    core::Scenario s = smallScenario(4, 2);
    auto unopt = run(s, false);
    auto opt = run(s, true);
    ASSERT_TRUE(unopt.verified && opt.verified);
    EXPECT_LT(opt.traffic.inter.messages,
              unopt.traffic.inter.messages);
}

} // namespace
} // namespace tli::apps::awari
