/**
 * @file
 * Tests for the sparse per-pair ordering state: behavioural basics,
 * and a golden-equivalence check against the flat R*R table the map
 * replaced, driven by a pseudo-random (src, dst, time) sequence at
 * paper-plus scale.
 */

#include "net/pair_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace tli::net {
namespace {

TEST(PairTimeMap, AbsentPairsReadZero)
{
    PairMap<Time> map;
    EXPECT_EQ(map.get(0, 0), 0.0);
    EXPECT_EQ(map.get(127, 3), 0.0);
    EXPECT_EQ(map.activePairs(), 0u);
    // Construction allocates nothing.
    EXPECT_EQ(map.memoryBytes(), 0u);
    // Under another origin (the replay's -measurementStart), absent
    // pairs read and insert as that origin.
    PairMap<Time> shifted(-2.5);
    EXPECT_EQ(shifted.get(4, 1), -2.5);
    EXPECT_EQ(shifted.ref(4, 1), -2.5);
}

TEST(PairTimeMap, RefInsertsAtZeroAndPersists)
{
    PairMap<Time> map;
    Time &slot = map.ref(3, 9);
    EXPECT_EQ(slot, 0.0);
    slot = 2.5;
    EXPECT_EQ(map.get(3, 9), 2.5);
    // The transposed pair is distinct.
    EXPECT_EQ(map.get(9, 3), 0.0);
    EXPECT_EQ(map.activePairs(), 1u);
}

TEST(PairTimeMap, SurvivesGrowth)
{
    PairMap<Time> map;
    const int n = 1000; // >> minCapacity, forces several rehashes
    for (int i = 0; i < n; ++i)
        map.ref(i, i + 1) = static_cast<Time>(i) * 0.5;
    EXPECT_EQ(map.activePairs(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(map.get(i, i + 1), static_cast<Time>(i) * 0.5);
}

/**
 * The drop-in-equivalence golden: replay the same pseudo-random
 * clamp-style access sequence against the sparse map and the dense
 * zero-filled table the fabric used before, and require every
 * intermediate read to match. This is the exact access pattern of
 * Interconnect::inOrder — read the pair's last time, clamp, write back.
 */
TEST(PairTimeMap, MatchesFlatTableGolden)
{
    constexpr int ranks = 128;
    PairMap<Time> sparse;
    std::vector<Time> flat(static_cast<std::size_t>(ranks) * ranks,
                           0.0);

    std::uint64_t state = 0x243f6a8885a308d3ull; // deterministic
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    for (int step = 0; step < 20000; ++step) {
        const Rank src = static_cast<Rank>(next() % ranks);
        const Rank dst = static_cast<Rank>(next() % ranks);
        const Time arrival =
            static_cast<Time>(next() % 1000000 + 1) * 1e-6;

        Time &flatLast =
            flat[static_cast<std::size_t>(src) * ranks +
                 static_cast<std::size_t>(dst)];
        ASSERT_EQ(sparse.get(src, dst), flatLast)
            << "read diverged at step " << step;

        // The fabric's in-order clamp, applied to both stores.
        const Time clamped =
            arrival > flatLast ? arrival : flatLast;
        flatLast = clamped;
        sparse.ref(src, dst) = clamped;
    }

    std::size_t touched = 0;
    for (int s = 0; s < ranks; ++s) {
        for (int d = 0; d < ranks; ++d) {
            EXPECT_EQ(sparse.get(s, d),
                      flat[static_cast<std::size_t>(s) * ranks + d]);
            if (flat[static_cast<std::size_t>(s) * ranks + d] > 0)
                ++touched;
        }
    }
    EXPECT_EQ(sparse.activePairs(), touched);
    // At this density (~70% of all pairs touched) the hash table may
    // legitimately exceed the flat table — the footprint win is for
    // sparse traffic, covered by SparseTrafficStaysSmall below.
}

TEST(PairTimeMap, SparseTrafficStaysSmall)
{
    // 100k ranks, 10k active pairs — the scaling regime the map
    // exists for. The dense table would be 80 GB here.
    constexpr int ranks = 100000;
    PairMap<Time> map;
    for (int i = 0; i < 10000; ++i)
        map.ref(i, (i * 31 + 7) % ranks) = 1.0 + i;
    EXPECT_EQ(map.activePairs(), 10000u);
    // 10k pairs fit a 16k-slot table: a few hundred KiB.
    EXPECT_LT(map.memoryBytes(), 1u << 20);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(map.get(i, (i * 31 + 7) % ranks), 1.0 + i);
}

} // namespace
} // namespace tli::net
