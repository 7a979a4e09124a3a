/**
 * @file
 * The sensitivity model: evaluate the critical-path predictor over a
 * (bandwidth, latency) grid to produce the paper's Fig. 3/4 surfaces
 * analytically, compare them against a simulated (DES) surface, and
 * emit the stable "tli-prediction-v1" JSON document.
 */

#ifndef TWOLAYER_ANALYSIS_SENSITIVITY_H_
#define TWOLAYER_ANALYSIS_SENSITIVITY_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/critical_path.h"
#include "analysis/trace_graph.h"
#include "core/metrics.h"

namespace tli::analysis {

/** The predictor's view of one full gap grid. */
struct PredictionStudy
{
    /** Predicted run time (seconds) per grid cell. */
    core::Surface runTimeS;
    /** Predicted fraction of the all-Myrinet speedup per cell. */
    core::Surface speedupFraction;
    /** Critical-path WAN propagation seconds per cell (dT/dL * L). */
    core::Surface wanLatencyShareS;
    /** Critical-path WAN serialization seconds per cell
     *  (dT/d(1/B) / B). */
    core::Surface wanBandwidthShareS;
    /** Predicted all-Myrinet run time (the normalization point). */
    double allMyrinetS = 0;
    /** Prediction at the traced scenario's own wide-area point. */
    Prediction tracePoint;
};

/**
 * Evaluate @p graph over the grid (empty = the paper's Fig. 3 grids).
 * One Predictor batch: the cells and the traced point share replay
 * passes, Predictor::kLanes points per pass, and the all-Myrinet
 * reference takes one more.
 */
PredictionStudy predictStudy(const TraceGraph &graph,
                             std::vector<double> bandwidths_mbs = {},
                             std::vector<double> latencies_ms = {});

/** Per-cell agreement between a predicted and a simulated surface. */
struct Accuracy
{
    /** Signed relative error (predicted - simulated) / simulated. */
    core::Surface relError;
    double medianAbsRelError = 0;
    double meanAbsRelError = 0;
    double maxAbsRelError = 0;
    std::size_t cells = 0;
};

/**
 * Compare two runtime surfaces cell by cell; both must share the same
 * grid. Cells where the simulated value is zero produce non-finite
 * errors, which the JSON layer renders as null.
 */
Accuracy compareToSimulated(const core::Surface &predicted_s,
                            const core::Surface &simulated_s);

/** Wall-clock accounting of one prediction run, for reports. */
struct PredictionTiming
{
    /** The one traced DES run. */
    double traceRunS = 0;
    /** TraceGraph::build. */
    double graphBuildS = 0;
    /** All replays (grid + all-Myrinet). */
    double predictS = 0;
    /** The validation DES sweep ("" when not run), for the headline
     *  analysis-vs-sweep comparison. */
    double simulateS = 0;
};

/**
 * Write the "tli-prediction-v1" document: the traced scenario, graph
 * statistics, the predicted surfaces, the local sensitivity
 * decomposition at the traced point and, when @p accuracy is
 * non-null, the validation block with the simulated surface and
 * per-cell errors.
 */
void writePredictionReport(std::ostream &os, const std::string &label,
                           const TraceGraph &graph,
                           const PredictionStudy &study,
                           const core::Surface *simulated_s,
                           const Accuracy *accuracy,
                           const PredictionTiming &timing);

} // namespace tli::analysis

#endif // TWOLAYER_ANALYSIS_SENSITIVITY_H_
