/**
 * @file
 * The critical-path predictor: exact reproduction of the traced run
 * at its own wide-area point, physically sensible monotonicity across
 * the gap grid, agreement with a small simulated sweep, and the
 * tli-prediction-v1 document round-tripping through the JSON parser.
 */

#include "analysis/sensitivity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "core/gap_study.h"
#include "core/json.h"
#include "net/wan_shape.h"

namespace tli::analysis {
namespace {

core::Scenario
tinyScenario()
{
    core::Scenario s;
    s.clusters = 2;
    s.procsPerCluster = 2;
    s.problemScale = 0.25;
    return s;
}

TraceGraph
tracedGraph(const std::string &app, const std::string &variant,
            const core::Scenario &s)
{
    GraphTraceSink sink;
    core::Scenario traced = s;
    traced.trace = &sink;
    core::RunResult run = apps::findVariant(app, variant).run(traced);
    EXPECT_TRUE(run.verified);
    return TraceGraph::build(sink, s);
}

/** One traced run the replay must reproduce: an app on a WAN shape. */
struct ExactnessCase
{
    std::string app;
    std::string variant;
    /** WAN shape spec at 4x2; "" for the fully connected 2x2 machine. */
    std::string shape;
};

// gtest names each case by this print, which ctest shows: strings,
// never pointers (whose addresses differ between builds), and the
// fully connected cases keep their original ("app", "variant") names.
void
PrintTo(const ExactnessCase &c, std::ostream *os)
{
    *os << "(\"" << c.app << "\", \"" << c.variant << '"';
    if (!c.shape.empty())
        *os << ", \"" << c.shape << '"';
    *os << ')';
}

class TracePointExactness
    : public ::testing::TestWithParam<ExactnessCase>
{
};

TEST_P(TracePointExactness, ReplayReproducesTheTracedRunExactly)
{
    const ExactnessCase &c = GetParam();
    core::Scenario s = tinyScenario();
    if (!c.shape.empty()) {
        s.clusters = 4;
        s.wanShape = *net::parseWanShape(c.shape);
    }
    TraceGraph g = tracedGraph(c.app, c.variant, s);
    Predictor pred(g);
    Prediction at = pred.predictAt(s.wanBandwidthMBs, s.wanLatencyMs);
    // The replay walks the fabric's own link chain on affine time: at
    // the traced point the prediction is the measured run time up to
    // ~1 ulp of accumulated difference.
    EXPECT_NEAR(at.runTimeS, g.baselineRunTime,
                1e-9 * g.baselineRunTime);
}

std::vector<ExactnessCase>
exactnessCases()
{
    std::vector<ExactnessCase> cases;
    for (const char *shape : {"", "star", "ring", "torus-2x2", "mesh-2x2"}) {
        for (auto [app, variant] :
             {std::pair{"fft", "unopt"}, std::pair{"water", "opt"},
              std::pair{"asp", "opt"}, std::pair{"tsp", "opt"},
              std::pair{"awari", "opt"}}) {
            cases.push_back({app, variant, shape});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Apps, TracePointExactness,
                         ::testing::ValuesIn(exactnessCases()));

TEST(Prediction, SurfacesAreMonotoneInLatencyAndBandwidth)
{
    core::Scenario s = tinyScenario();
    TraceGraph g = tracedGraph("fft", "unopt", s);
    const std::vector<double> bws = {6.3, 0.95, 0.3, 0.03};
    const std::vector<double> lats = {0.5, 3.3, 30, 300};
    PredictionStudy study = predictStudy(g, bws, lats);

    // Grids are ordered from mild to severe: predicted run time must
    // not improve as the wide area degrades.
    for (std::size_t li = 0; li < lats.size(); ++li)
        for (std::size_t bi = 0; bi + 1 < bws.size(); ++bi)
            EXPECT_LE(study.runTimeS.at(li, bi),
                      study.runTimeS.at(li, bi + 1) * (1 + 1e-12));
    for (std::size_t bi = 0; bi < bws.size(); ++bi)
        for (std::size_t li = 0; li + 1 < lats.size(); ++li)
            EXPECT_LE(study.runTimeS.at(li, bi),
                      study.runTimeS.at(li + 1, bi) * (1 + 1e-12));

    // The all-Myrinet reference beats every wide-area cell.
    EXPECT_GT(study.allMyrinetS, 0.0);
    for (std::size_t li = 0; li < lats.size(); ++li)
        for (std::size_t bi = 0; bi < bws.size(); ++bi) {
            EXPECT_LE(study.allMyrinetS,
                      study.runTimeS.at(li, bi) * (1 + 1e-12));
            EXPECT_GT(study.speedupFraction.at(li, bi), 0.0);
            EXPECT_LE(study.speedupFraction.at(li, bi), 1.0 + 1e-12);
        }
}

TEST(Prediction, AgreesWithSmallSimulatedSweep)
{
    core::Scenario s = tinyScenario();
    core::AppVariant variant = apps::findVariant("fft", "unopt");
    TraceGraph g = tracedGraph("fft", "unopt", s);
    const std::vector<double> bws = {6.3, 0.3};
    const std::vector<double> lats = {0.5, 30};
    PredictionStudy study = predictStudy(g, bws, lats);

    core::GapStudy des(variant, s);
    core::Surface simulated = des.runTimeSurface(bws, lats);
    Accuracy acc = compareToSimulated(study.runTimeS, simulated);
    EXPECT_EQ(acc.cells, bws.size() * lats.size());
    // Generous against future model drift; measured max on this
    // config is well under 2%.
    EXPECT_LT(acc.maxAbsRelError, 0.08);
}

TEST(Prediction, ReportRoundTripsThroughJsonParser)
{
    core::Scenario s = tinyScenario();
    TraceGraph g = tracedGraph("fft", "unopt", s);
    const std::vector<double> bws = {6.3, 0.3};
    const std::vector<double> lats = {0.5, 30};
    PredictionStudy study = predictStudy(g, bws, lats);

    std::ostringstream os;
    writePredictionReport(os, "fft/unopt", g, study, nullptr, nullptr,
                          {});
    std::string error;
    std::optional<core::JsonValue> doc =
        core::parseJson(os.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("schema").asString(), "tli-prediction-v1");
    EXPECT_EQ(doc->at("label").asString(), "fft/unopt");
    // Reports render doubles at %.12g (readable), not full precision.
    EXPECT_NEAR(doc->at("graph").at("baseline_run_time_s").asDouble(),
                g.baselineRunTime, 1e-9 * g.baselineRunTime);
    const core::JsonValue &grid = doc->at("predicted_run_time_s");
    EXPECT_EQ(grid.size(), lats.size());
}

} // namespace
} // namespace tli::analysis
