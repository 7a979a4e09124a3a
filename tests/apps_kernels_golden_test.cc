/**
 * @file
 * Golden values for the simulated outputs of ASP, TSP, Water and
 * Barnes-Hut, both variants, on a 2x2 machine at scale 0.1 and on the
 * paper's 4x8 machine at the default scale. Each case pins, bit for
 * bit, the measured run time, the checksum, the per-rank charged
 * compute and the intra/inter message and byte counters of one run.
 * The values were recorded before the host kernels (ASP's row
 * relaxation, TSP's bound, Water's contributor sets, Barnes-Hut's tree
 * walk) were rewritten for speed; those rewrites must not move a bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/registry.h"
#include "sim/hash.h"

namespace tli::apps {
namespace {

struct Golden
{
    const char *name;
    const char *app;
    const char *variant;
    int clusters;
    int procs;
    double scale;
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

const Golden goldens[] = {
    // name, app, variant, C, P, scale, runTime, checksum, ranks,
    // compute, intra msgs, intra bytes, inter msgs, inter bytes
    {"asp_2x2_unopt", "asp", "unopt", 2, 2, 0.1, 0x4012EFB94A3F2C1DULL,
     0x4100119000000000ULL, 4, 0xB8B623836C554F7DULL, 912, 5362640,
     305, 1787576},
    {"asp_2x2_opt", "asp", "opt", 2, 2, 0.1, 0x401263F15884C528ULL,
     0x4100119000000000ULL, 4, 0xB8B623836C554F7DULL, 770, 5356384,
     160, 1781192},
    {"asp_4x8_unopt", "asp", "unopt", 4, 8, 1, 0x3FFD43367CD74DAAULL,
     0x411B668400000000ULL, 32, 0x3F79C31F12AC1B25ULL, 3702, 27013072,
     1559, 11576056},
    {"asp_4x8_opt", "asp", "opt", 4, 8, 1, 0x3FF4AB93272742BBULL,
     0x411B668400000000ULL, 32, 0x3F79C31F12AC1B25ULL, 3240, 26992720,
     1088, 11555320},
    {"tsp_2x2_unopt", "tsp", "unopt", 2, 2, 0.1, 0x4041B343F2C22AFAULL,
     0x4063800000000000ULL, 4, 0xA37A304F13545C30ULL, 14575, 757382,
     4469, 232202},
    {"tsp_2x2_opt", "tsp", "opt", 2, 2, 0.1, 0x40412AF7280E2C48ULL,
     0x4063800000000000ULL, 4, 0x0C006A6C9E3A9855ULL, 10161, 534982,
     31, 5033},
    {"tsp_4x8_unopt", "tsp", "unopt", 4, 8, 1, 0x401367DF400E2754ULL,
     0x406FC00000000000ULL, 32, 0x99D7FBC8E31B5A8CULL, 37474, 1941616,
     13390, 693792},
    {"tsp_4x8_opt", "tsp", "opt", 4, 8, 1, 0x4011C93B0346FC9AULL,
     0x406FC00000000000ULL, 32, 0xA1839A2628B47809ULL, 24757, 1303750,
     373, 29047},
    {"water_2x2_unopt", "water", "unopt", 2, 2, 0.1, 0x4021A61FCBB98334ULL,
     0x409D74E646921E68ULL, 4, 0x9BC1F5BB69594422ULL, 120, 546983,
     46, 218467},
    {"water_2x2_opt", "water", "opt", 2, 2, 0.1, 0x4021A485BA8B0595ULL,
     0x409D74E646921E68ULL, 4, 0x9BC1F5BB69594422ULL, 141, 712457,
     37, 164230},
    {"water_4x8_unopt", "water", "unopt", 4, 8, 1, 0x3FF0A62573C3753EULL,
     0x40C1737B78C123B6ULL, 32, 0xA6CBF49FBE0A1F45ULL, 7878, 6250864,
     3399, 2735512},
    {"water_4x8_opt", "water", "opt", 4, 8, 1, 0x3FEE4E2415748A82ULL,
     0x40C1737B78C123B6ULL, 32, 0xA6CBF49FBE0A1F45ULL, 5722, 4530832,
     663, 446416},
    {"barnes_2x2_unopt", "barnes", "unopt", 2, 2, 0.1, 0x3FE82D7F26178877ULL,
     0x407769EF01D5A310ULL, 4, 0xB245880F8AD8F6FEULL, 118, 456863,
     45, 178572},
    {"barnes_2x2_opt", "barnes", "opt", 2, 2, 0.1, 0x3FE821393DDA0246ULL,
     0x407769EF01D5A310ULL, 4, 0xB245880F8AD8F6FEULL, 93, 632883,
     26, 178092},
    {"barnes_4x8_unopt", "barnes", "unopt", 4, 8, 1, 0x3FE9AAE732EE3F4AULL,
     0x40A7FDCEC6B40F2EULL, 32, 0xED18BFDDF5F7E597ULL, 6486, 8554142,
     2047, 3155322},
    {"barnes_4x8_opt", "barnes", "opt", 4, 8, 1, 0x3FE7EA04C1A7A0DEULL,
     0x40A7FDCEC6B40F2EULL, 32, 0xED18BFDDF5F7E597ULL, 4837, 11602752,
     522, 3118810},
};

class KernelGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(KernelGolden, SimulatedOutputsAreUnchanged)
{
    const Golden &g = GetParam();
    core::Scenario s;
    s.clusters = g.clusters;
    s.procsPerCluster = g.procs;
    s.problemScale = g.scale;
    core::RunResult r = findVariant(g.app, g.variant).run(s);
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
    Runs, KernelGolden, ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tli::apps
