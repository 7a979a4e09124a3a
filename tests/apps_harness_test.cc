/**
 * @file
 * The run protocol every application shares: Machine::runWorkers()
 * (launch one worker per rank, then name the ranks that never
 * finished), the reference Memo (shared across sweep threads) and the
 * registry's variant lists, whose order fixes benchmark job order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "apps/common.h"
#include "apps/registry.h"

namespace tli::apps {
namespace {

constexpr int neverSentTag = 77;

core::Scenario
twoByTwo()
{
    core::Scenario s;
    s.clusters = 2;
    s.procsPerCluster = 2;
    s.wanBandwidthMBs = 6.0;
    s.wanLatencyMs = 0.5;
    return s;
}

/** Odd ranks wait for a message nobody sends. */
sim::Task<void>
oddRanksStuck(Machine &m, Rank self)
{
    if (self % 2 == 1)
        (void)co_await m.panda().recv(self, neverSentTag);
}

TEST(AppsHarnessDeathTest, StuckWorkersAreNamed)
{
    EXPECT_DEATH(
        {
            Machine m(twoByTwo());
            m.runWorkers([&](Rank r) { return oddRanksStuck(m, r); });
        },
        "deadlock on 2x2 wan=6MB/s,0.5ms: 2 of 4 workers did not "
        "finish \\(ranks 1, 3\\)");
}

TEST(AppsHarnessDeathTest, LongStuckListIsCut)
{
    core::Scenario s = twoByTwo();
    s.clusters = 4;
    s.procsPerCluster = 4;
    EXPECT_DEATH(
        {
            Machine m(s);
            m.runWorkers([&](Rank r) -> sim::Task<void> {
                if (r != 0)
                    (void)co_await m.panda().recv(r, neverSentTag);
            });
        },
        "15 of 16 workers did not finish "
        "\\(ranks 1, 2, 3, 4, 5, 6, 7, 8, \\.\\.\\.\\)");
}

/** Blocks forever, like a server or an abandoned helper. */
sim::Task<void>
blockedForever(Machine &m, Rank self)
{
    (void)co_await m.panda().recv(self, neverSentTag);
}

TEST(AppsHarness, ServersAndHelpersAreNotWorkers)
{
    Machine m(twoByTwo());
    // A server started before the workers, and a helper each worker
    // spawns mid-run: neither finishes, and neither is checked.
    const sim::ProcessId server = m.sim().spawn(blockedForever(m, 0));
    int ran = 0;
    m.runWorkers([&](Rank r) -> sim::Task<void> {
        m.sim().spawn(blockedForever(m, r));
        co_await m.sim().sleep(1e-3);
        ++ran;
    });
    EXPECT_EQ(ran, 4);
    EXPECT_FALSE(m.sim().done(server));
    // Servers first, then ranks 0..3 in order, then the helpers.
    EXPECT_EQ(m.sim().spawnedProcesses(), 9u);
    EXPECT_EQ(m.sim().finishedProcesses(), 4u);
    for (sim::ProcessId id = 1; id <= 4; ++id)
        EXPECT_TRUE(m.sim().done(id));
}

TEST(AppsMemo, ComputesEachKeyOnceAcrossThreads)
{
    Memo<int, std::vector<int>> memo;
    std::atomic<int> computed{0};
    constexpr int threads = 8;
    constexpr int keys = 16;
    // Per thread, per key: the address get() returned.
    std::vector<std::vector<const std::vector<int> *>> seen(
        threads, std::vector<const std::vector<int> *>(keys + 1));

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round) {
                // Key 0 is shared by every thread on every round;
                // keys 1..16 are spread so threads both collide and
                // miss each other.
                const int key = round % 2 == 0 ? 0 : 1 + (t + round) % keys;
                const std::vector<int> &v = memo.get(key, [&] {
                    ++computed;
                    return std::vector<int>(64, key);
                });
                ASSERT_EQ(v.size(), 64u);
                ASSERT_EQ(v.front(), key);
                if (seen[t][key] == nullptr)
                    seen[t][key] = &v;
                ASSERT_EQ(seen[t][key], &v) << "a reference moved";
            }
        });
    }
    for (std::thread &th : pool)
        th.join();

    EXPECT_EQ(computed.load(), keys + 1);
    for (int key = 0; key <= keys; ++key) {
        const std::vector<int> *first = nullptr;
        for (int t = 0; t < threads; ++t) {
            if (seen[t][key] == nullptr)
                continue;
            if (first == nullptr)
                first = seen[t][key];
            EXPECT_EQ(seen[t][key], first) << "key " << key;
        }
    }
}

std::vector<std::string>
names(const std::vector<core::AppVariant> &variants)
{
    std::vector<std::string> out;
    for (const core::AppVariant &v : variants)
        out.push_back(v.fullName());
    return out;
}

// Benchmark job order follows these lists; pin them exactly.
TEST(AppsRegistry, VariantListsKeepTheirOrder)
{
    EXPECT_EQ(names(allVariants()),
              (std::vector<std::string>{
                  "water/unopt", "water/opt", "barnes/unopt",
                  "barnes/opt", "tsp/unopt", "tsp/opt", "asp/unopt",
                  "asp/opt", "awari/unopt", "awari/opt", "fft/unopt"}));
    EXPECT_EQ(names(unoptimizedVariants()),
              (std::vector<std::string>{"water/unopt", "barnes/unopt",
                                        "tsp/unopt", "asp/unopt",
                                        "awari/unopt", "fft/unopt"}));
    EXPECT_EQ(names(bestVariants()),
              (std::vector<std::string>{"water/opt", "barnes/opt",
                                        "tsp/opt", "asp/opt",
                                        "awari/opt", "fft/unopt"}));
}

TEST(AppsRegistry, LookupFindsEveryListedVariantAndNothingElse)
{
    for (const core::AppVariant &v : allVariants()) {
        std::optional<core::AppVariant> found =
            lookupVariant(v.app, v.variant);
        ASSERT_TRUE(found.has_value()) << v.fullName();
        EXPECT_EQ(found->fullName(), v.fullName());
    }
    EXPECT_FALSE(lookupVariant("fft", "opt").has_value());
    EXPECT_FALSE(lookupVariant("nbody", "unopt").has_value());
}

} // namespace
} // namespace tli::apps
