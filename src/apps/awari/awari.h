/**
 * @file
 * Awari: the retrograde-analysis application (paper §3.1/§3.2).
 *
 * Endgame-database construction: positions are hashed to processors;
 * each stage (stone count) is solved by exchanging many small
 * asynchronous (position, value) messages. Both variants batch
 * messages per destination processor; the optimized variant adds the
 * paper's second combining layer, assembling cross-cluster traffic at
 * a designated local processor and redistributing it at the target
 * cluster.
 */

#ifndef TWOLAYER_APPS_AWARI_AWARI_H_
#define TWOLAYER_APPS_AWARI_AWARI_H_

#include <cstdint>

#include "core/scenario.h"

namespace tli::apps::awari {

struct Config
{
    /** Largest database stage (paper: 9 stones; scaled default 6). */
    int maxStones = 6;
    /** Batch threshold of the per-destination message combiner
     *  (paper: combining is bounded because "too much message
     *  combining results in load imbalance"). */
    int combineItems = 64;
    /** CPU work units charged per protocol item handled; message
     *  handling dominates Awari's profile (Table 1: speedup 7.8 on
     *  32 processors). */
    double itemHandlingUnits = 1.0;

    /**
     * Total sequential solve time the cost model is calibrated to:
     * Table 1 gives 2.3 s on 32 processors at speedup 7.8, i.e. ~18 s
     * sequential. The per-unit cost is derived per input from the
     * sequential solver's work-unit count.
     */
    double totalSequentialSeconds = 18.0;

    static Config fromScenario(const core::Scenario &scenario);
};

/** Run the parallel application on one scenario. */
core::RunResult run(const core::Scenario &scenario, bool optimized);

/**
 * Ablation entry point: run with an explicit combining configuration.
 * @p max_items 1 disables combining (every value update is its own
 * message); @p cluster_layer enables the optimized second layer.
 */
core::RunResult runWithCombining(const core::Scenario &scenario,
                                 int max_items, bool cluster_layer);

} // namespace tli::apps::awari

#endif // TWOLAYER_APPS_AWARI_AWARI_H_
