/**
 * @file
 * Golden values for Awari's simulated outputs. Each case pins, bit for
 * bit, the measured run time, the checksum, the per-rank charged
 * compute and the intra/inter message and byte counters of one run.
 * The values were recorded from the hash-map implementation that the
 * dense position tables replaced. The uncombined runs send every item
 * as its own message, so they also catch a change in the order in which
 * requests and values are issued that batching would hide.
 */

#include "apps/awari/awari.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/hash.h"

namespace tli::apps::awari {
namespace {

enum class Entry { unopt, opt, uncombinedNoLayer };

struct Golden
{
    const char *name;
    int clusters;
    int procs;
    double scale;
    Entry entry;
    std::uint64_t runTimeBits;
    std::uint64_t checksumBits;
    std::size_t ranks;
    /** FNV-1a over the bit patterns of computePerRank, in rank order. */
    std::uint64_t computeDigest;
    std::uint64_t intraMessages;
    std::uint64_t intraBytes;
    std::uint64_t interMessages;
    std::uint64_t interBytes;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name;
}

std::uint64_t
bitsDigest(const std::vector<double> &values)
{
    return sim::fnv1a(std::string_view(
        reinterpret_cast<const char *>(values.data()),
        values.size() * sizeof(double)));
}

core::RunResult
runEntry(const Golden &g)
{
    core::Scenario s;
    s.clusters = g.clusters;
    s.procsPerCluster = g.procs;
    s.problemScale = g.scale;
    if (g.entry == Entry::uncombinedNoLayer)
        return runWithCombining(s, 1, false);
    return run(s, g.entry == Entry::opt);
}

const Golden goldens[] = {
    // name, C, P, scale, entry, runTime, checksum, ranks, compute,
    // intra msgs, intra bytes, inter msgs, inter bytes
    {"2x2_unopt", 2, 2, 0.1, Entry::unopt, 0x40221913E671C3D4ULL,
     0x4115618000000000ULL, 4, 0xBB1EFF8B30AE5C66ULL, 2127, 824384, 759,
     324256},
    {"2x2_opt", 2, 2, 0.1, Entry::opt, 0x40221913E671C3D4ULL,
     0x4115618000000000ULL, 4, 0xBB1EFF8B30AE5C66ULL, 2662, 1436320, 604,
     468000},
    {"2x2_uncombined", 2, 2, 0.1, Entry::uncombinedNoLayer,
     0x4021F66488D71FF0ULL, 0x4115618000000000ULL, 4,
     0x77DC83EDFF84C500ULL, 47260, 2268640, 18748, 899904},
    {"4x8_unopt", 4, 8, 1.0, Entry::unopt, 0x40062DBCD4DF4618ULL,
     0x413271D000000000ULL, 32, 0x2A8AD76735391FE7ULL, 71149, 6408096,
     28129, 2656688},
    {"4x8_opt", 4, 8, 1.0, Entry::opt, 0x4000A55D2ED3D76BULL,
     0x413271D000000000ULL, 32, 0x51CD188F0C439615ULL, 62598, 9621312,
     7619, 2872432},
    {"4x8_uncombined", 4, 8, 1.0, Entry::uncombinedNoLayer,
     0x40183AF558406A6BULL, 0x413271D000000000ULL, 32,
     0x2428222729AF1F83ULL, 258290, 12397696, 109862, 5272240},
};

class AwariGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(AwariGolden, SimulatedOutputsAreUnchanged)
{
    const Golden &g = GetParam();
    core::RunResult r = runEntry(g);
    ASSERT_TRUE(r.verified);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.runTime), g.runTimeBits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.checksum), g.checksumBits);
    ASSERT_EQ(r.computePerRank.size(), g.ranks);
    EXPECT_EQ(bitsDigest(r.computePerRank), g.computeDigest);
    EXPECT_EQ(r.traffic.intra.messages, g.intraMessages);
    EXPECT_EQ(r.traffic.intra.bytes, g.intraBytes);
    EXPECT_EQ(r.traffic.inter.messages, g.interMessages);
    EXPECT_EQ(r.traffic.inter.bytes, g.interBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, AwariGolden, ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tli::apps::awari
