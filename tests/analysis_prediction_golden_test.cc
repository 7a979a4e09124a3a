/**
 * @file
 * Bit-level golden of the sensitivity model: for each application on
 * a 4x2 machine under every WAN shape, predictStudy's four surfaces,
 * its all-Myrinet reference and its trace-point prediction hash to
 * pinned values. Any change to the replay's arithmetic, its order of
 * operations or its tie rules moves a digest; a faster replay must
 * leave all of them as they are.
 *
 * The grid has 3 bandwidths x 5 latencies: 15 cells, a count no
 * power-of-two batch width divides, so a batched replay's partial
 * last pass is covered.
 */

#include "analysis/sensitivity.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "net/wan_shape.h"

namespace tli::analysis {
namespace {

/** FNV-1a over the little-endian bytes of each value's bit pattern. */
class BitDigest
{
  public:
    void
    add(double x)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ULL;
        }
    }

    void
    add(const core::Surface &s)
    {
        for (const std::vector<double> &row : s.values)
            for (double x : row)
                add(x);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

/** One pinned study: an application on a WAN shape. */
struct Golden
{
    const char *app;
    const char *variant;
    const char *shape;
    std::uint64_t runTime;
    std::uint64_t speedupFraction;
    std::uint64_t wanLatencyShare;
    std::uint64_t wanBandwidthShare;
    /** Bit pattern of allMyrinetS itself. */
    std::uint64_t allMyrinet;
    /** Digest of the five tracePoint fields. */
    std::uint64_t tracePoint;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.app << '/' << g.variant << '@' << g.shape;
}

Golden
measure(const Golden &c)
{
    core::Scenario s;
    s.clusters = 4;
    s.procsPerCluster = 2;
    s.problemScale = 0.1;
    s.wanShape = *net::parseWanShape(c.shape);

    GraphTraceSink sink;
    core::Scenario traced = s;
    traced.trace = &sink;
    core::RunResult run =
        apps::findVariant(c.app, c.variant).run(traced);
    EXPECT_TRUE(run.verified);
    const TraceGraph g = TraceGraph::build(sink, s);
    const PredictionStudy study =
        predictStudy(g, {6.3, 0.95, 0.1}, {0.5, 3.3, 10, 30, 300});

    Golden out = c;
    BitDigest d;
    d.add(study.runTimeS);
    out.runTime = d.value();
    d = {};
    d.add(study.speedupFraction);
    out.speedupFraction = d.value();
    d = {};
    d.add(study.wanLatencyShareS);
    out.wanLatencyShare = d.value();
    d = {};
    d.add(study.wanBandwidthShareS);
    out.wanBandwidthShare = d.value();
    out.allMyrinet = bitsOf(study.allMyrinetS);
    d = {};
    for (double x : {study.tracePoint.runTimeS, study.tracePoint.dLat,
                     study.tracePoint.dInvBw,
                     study.tracePoint.wanLatencyS,
                     study.tracePoint.wanBandwidthS})
        d.add(x);
    out.tracePoint = d.value();
    return out;
}

std::string
row(const Golden &g)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", \"%s\", \"%s\", 0x%016" PRIX64
                  "ULL, 0x%016" PRIX64 "ULL, 0x%016" PRIX64
                  "ULL, 0x%016" PRIX64 "ULL, 0x%016" PRIX64
                  "ULL, 0x%016" PRIX64 "ULL},",
                  g.app, g.variant, g.shape, g.runTime,
                  g.speedupFraction, g.wanLatencyShare,
                  g.wanBandwidthShare, g.allMyrinet, g.tracePoint);
    return buf;
}

class PredictionGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(PredictionGolden, StudyBitsArePinned)
{
    const Golden &want = GetParam();
    const Golden got = measure(want);
    EXPECT_EQ(got.runTime, want.runTime) << "predicted run time";
    EXPECT_EQ(got.speedupFraction, want.speedupFraction)
        << "speedup fraction";
    EXPECT_EQ(got.wanLatencyShare, want.wanLatencyShare)
        << "WAN latency share";
    EXPECT_EQ(got.wanBandwidthShare, want.wanBandwidthShare)
        << "WAN bandwidth share";
    EXPECT_EQ(got.allMyrinet, want.allMyrinet) << "all-Myrinet time";
    EXPECT_EQ(got.tracePoint, want.tracePoint) << "trace point";
    if (::testing::Test::HasFailure())
        std::printf("measured: %s\n", row(got).c_str());
}

// clang-format off
const Golden kGolden[] = {
    {"fft", "unopt", "fully-connected", 0x0904503A080EB311ULL, 0x68D130605881BFE0ULL, 0x7B9CB06333827356ULL, 0xC246D8991E0AE23BULL, 0x3FF4810478E52220ULL, 0xA9EB724747ED825CULL},
    {"fft", "unopt", "star", 0xDF0D539F4B42AE02ULL, 0xDDB9144D16A1F63FULL, 0x49AF49F2DDF793F6ULL, 0x1D4E52C723CBEDF2ULL, 0x3FF4807A4C429E6EULL, 0x4426B1C28B8CE48CULL},
    {"fft", "unopt", "ring", 0xDC635F4C7BA5DFA3ULL, 0xA72C6627D6569240ULL, 0xF2A1AEB19B30F840ULL, 0xCFFFBCE944C5C171ULL, 0x3FF49C0481A2329EULL, 0x3FE35BBCA9CACBE4ULL},
    {"fft", "unopt", "torus-2x2", 0x94FA9FC284CA8633ULL, 0x1D15CDE73789BFB1ULL, 0x75A7A5D4EF882B66ULL, 0xAB89D8FBC6D20AF6ULL, 0x3FF51146DCACD925ULL, 0xD461EFE83356C8A4ULL},
    {"fft", "unopt", "mesh-2x2", 0x94FA9FC284CA8633ULL, 0x1D15CDE73789BFB1ULL, 0x75A7A5D4EF882B66ULL, 0xAB89D8FBC6D20AF6ULL, 0x3FF51146DCACD925ULL, 0xD461EFE83356C8A4ULL},
    {"water", "opt", "fully-connected", 0x5966D4375CFBF829ULL, 0x6384B73B16F24C60ULL, 0xC599B19440EBF4F5ULL, 0x86AB785DCAC8792BULL, 0x40103D17681903B6ULL, 0x1A20AEE8DC4A6FBAULL},
    {"water", "opt", "star", 0xF241B260813A2C79ULL, 0xEA5CC3E4D857A6B7ULL, 0xC6DF827839A33350ULL, 0x00E0D311B54F7A3EULL, 0x40103DCE308D5347ULL, 0x67D08A601CE9B70EULL},
    {"water", "opt", "ring", 0xB24904725898CE5CULL, 0x06ED7E4B4AC31DB0ULL, 0x880E65FA5E1EA5A9ULL, 0x595993E3F1630DFBULL, 0x401042A6CD9FE8A3ULL, 0x9C6C0CB0E1713F4AULL},
    {"water", "opt", "torus-2x2", 0x908EDBD70570DC29ULL, 0x6E97D14080FD3D72ULL, 0xCB0EF166D9DD377DULL, 0x9C6EB05DF360566FULL, 0x40103F6C46C1F46AULL, 0xBAC186391D839999ULL},
    {"water", "opt", "mesh-2x2", 0x908EDBD70570DC29ULL, 0x6E97D14080FD3D72ULL, 0xCB0EF166D9DD377DULL, 0x9C6EB05DF360566FULL, 0x40103F6C46C1F46AULL, 0xBAC186391D839999ULL},
    {"asp", "opt", "fully-connected", 0xCD3E109430EFCA0EULL, 0x025393676CF818E1ULL, 0x76921F9362F4EBFFULL, 0x05845CC7B4918865ULL, 0x4002DF90D14DA31EULL, 0x2B4D74433F5ADD97ULL},
    {"asp", "opt", "star", 0xAF6967489FC564B9ULL, 0x8F11882899B51F95ULL, 0xBDAF92A393658803ULL, 0x45A4C656235DDAA7ULL, 0x4002DF90D14DA31DULL, 0x4022D1C09F3312DBULL},
    {"asp", "opt", "ring", 0x783921E2C4B267A8ULL, 0xBEBD1FF8C997C501ULL, 0x5A4681B161E88FA8ULL, 0xE9C2CEB4CC654DE7ULL, 0x4002DFCEC9DD4F31ULL, 0x5F9EC800B1561A6DULL},
    {"asp", "opt", "torus-2x2", 0x4C3829DBDFD7A204ULL, 0xACA73E0EE59852AEULL, 0xEBACF3EBF77C6750ULL, 0x90753677648B0BA6ULL, 0x4002DFBC5AC228D5ULL, 0x5EB3E4CA33405D47ULL},
    {"asp", "opt", "mesh-2x2", 0x4C3829DBDFD7A204ULL, 0xACA73E0EE59852AEULL, 0xEBACF3EBF77C6750ULL, 0x90753677648B0BA6ULL, 0x4002DFBC5AC228D5ULL, 0x5EB3E4CA33405D47ULL},
    {"tsp", "opt", "fully-connected", 0xADDA5A80675037B9ULL, 0xC0570936732EDDFCULL, 0xA1A027C2D7BEA618ULL, 0x07F412FBEDF36822ULL, 0x40316EEE8479147DULL, 0xEE1727C08557B9DFULL},
    {"tsp", "opt", "star", 0xCDD0F20E7D73EE50ULL, 0xB766A18714CF4AD1ULL, 0xE56681164497145EULL, 0xB34B17EE02160DF7ULL, 0x4031558D143AF0FAULL, 0xD41F178AF4AAA373ULL},
    {"tsp", "opt", "ring", 0x0432FCE685037F08ULL, 0xA315603256610587ULL, 0x45A50FEC5AA50589ULL, 0x88C5462ED666595CULL, 0x4031561968710F7BULL, 0xCAD715030D6F4CAFULL},
    {"tsp", "opt", "torus-2x2", 0x58F6B5135D4DC09FULL, 0x19B11E8C0FC2F0ABULL, 0x74900BC81CDC2C72ULL, 0x0EC5655F335F2310ULL, 0x403157192EAF113DULL, 0x90B6DEC86D24A245ULL},
    {"tsp", "opt", "mesh-2x2", 0x58F6B5135D4DC09FULL, 0x19B11E8C0FC2F0ABULL, 0x74900BC81CDC2C72ULL, 0x0EC5655F335F2310ULL, 0x403157192EAF113DULL, 0x90B6DEC86D24A245ULL},
    {"awari", "opt", "fully-connected", 0x502485BC388A2757ULL, 0x12F41D04B88AC7FBULL, 0x1CB2C6D69291D1E4ULL, 0xA99941C785D67D88ULL, 0x4014FBF9F25F73C2ULL, 0xB43D6FBC001BFDDCULL},
    {"awari", "opt", "star", 0xE9C2B3DCBFC9C37DULL, 0x09B5CCE5410A1ABBULL, 0x199CA7CD0849C1A8ULL, 0xDD41CDEF4ECB6870ULL, 0x40150FEDF5F4780FULL, 0x67F43E9A1D4A3747ULL},
    {"awari", "opt", "ring", 0xB2330ED3D883901DULL, 0x37C1E68F7973223DULL, 0x8093723598C688E9ULL, 0x7A606E5466DD5B81ULL, 0x40150CA33DEE9D69ULL, 0x748156229052CC0AULL},
    {"awari", "opt", "torus-2x2", 0xC7115D994003D636ULL, 0xE7D1E91B2E3BC3ECULL, 0xA9313ACEB921CB69ULL, 0xBA1C3F294C513838ULL, 0x4015106E633A1FA6ULL, 0xFB322C3C92F64B64ULL},
    {"awari", "opt", "mesh-2x2", 0xC7115D994003D636ULL, 0xE7D1E91B2E3BC3ECULL, 0xA9313ACEB921CB69ULL, 0xBA1C3F294C513838ULL, 0x4015106E633A1FA6ULL, 0xFB322C3C92F64B64ULL},
    {"barnes", "opt", "fully-connected", 0xF18D6D6A4EAF6241ULL, 0x33E98BCE90574D3FULL, 0xD0C55801248FEFEFULL, 0xDE2055F175FB1572ULL, 0x3FD876659F536503ULL, 0x9E685E08855D91D8ULL},
    {"barnes", "opt", "star", 0x7904655619030B56ULL, 0x81F92ADE1A9505C1ULL, 0x795756ADC4D64D81ULL, 0x1EAABE7A6F904149ULL, 0x3FD874E956BBD4E7ULL, 0x26958802114F2098ULL},
    {"barnes", "opt", "ring", 0xB646E5025F8AC214ULL, 0x5A418983FCD7A858ULL, 0x81E2456A70253031ULL, 0xA0EE9F2AC54DC8B5ULL, 0x3FD8B4A5B5454947ULL, 0xB19153B3658A7E13ULL},
    {"barnes", "opt", "torus-2x2", 0x25567A13D2D2E9FCULL, 0x4276D5DD4625CD96ULL, 0xAA6F47B3DC1527B5ULL, 0x65510F2939FF3FF0ULL, 0x3FD889A060F43115ULL, 0x68382EAF41E8DDBCULL},
    {"barnes", "opt", "mesh-2x2", 0x25567A13D2D2E9FCULL, 0x4276D5DD4625CD96ULL, 0xAA6F47B3DC1527B5ULL, 0x65510F2939FF3FF0ULL, 0x3FD889A060F43115ULL, 0x68382EAF41E8DDBCULL},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(
    Apps, PredictionGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string name = std::string(info.param.app) + "_" +
                           info.param.shape;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace tli::analysis
