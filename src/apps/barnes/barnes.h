/**
 * @file
 * Barnes-Hut: the BSP-style N-body application (paper §3.1/§3.2,
 * after Blackston & Suel).
 *
 * Bodies are partitioned into spatially coherent blocks (Morton
 * order). Each iteration every processor builds a local octree,
 * precomputes which tree nodes and bodies each other processor will
 * need (the locally essential tree for that processor's bounding
 * box), and ships them in one collective exchange phase; force
 * computation then proceeds without stalls. The unoptimized program
 * sends one message per recipient and closes every superstep with a
 * strict barrier; the optimized program combines messages per
 * destination cluster (dispatched by a designated processor on the
 * receiving side) and relaxes the barrier using iteration-stamped
 * messages.
 */

#ifndef TWOLAYER_APPS_BARNES_BARNES_H_
#define TWOLAYER_APPS_BARNES_BARNES_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/barnes/tree.h"
#include "core/scenario.h"
#include "sim/types.h"

namespace tli::apps::barnes {

struct Config
{
    /** Number of bodies (paper: 64K; scaled default 2048). */
    int n = 2048;
    /** Simulation iterations (supersteps). */
    int iterations = 2;
    /** Barnes-Hut opening criterion. */
    double theta = 0.6;
    double softening = 0.01;
    double dt = 0.05;
    std::uint64_t seed = 42;

    static Config fromScenario(const core::Scenario &scenario);

    /**
     * Simulated cost of one body-element interaction. Calibrated to
     * Table 1 (64K bodies, 1.8 s on 32 processors at speedup 28.4)
     * and scaled with the problem-size reduction so the
     * compute/communication ratio of the paper's input is preserved.
     */
    double
    costPerInteraction() const
    {
        return 4e-6 * std::sqrt(65536.0 / n);
    }

    /**
     * Factor applied to essential-element wire sizes: LET sizes grow
     * roughly with the body count to the 2/3 power, so a reduced-size
     * run keeps the paper's transfer volume per superstep.
     */
    double
    wireScale() const
    {
        return std::cbrt(65536.0 / n);
    }
};

/**
 * The per-rank computation of one iteration, shared verbatim by the
 * parallel code and the sequential reference: given the rank's bodies
 * and the essential elements received from every other rank (indexed
 * by source rank), produce accelerations. Elements are applied in
 * source-rank order so the parallel and sequential results agree
 * bit-for-bit regardless of message arrival order.
 */
std::vector<Vec3> computeAccelerations(
    const std::vector<Body> &own, const Octree &own_tree,
    const std::vector<std::vector<Element>> &remote, double theta,
    double softening, std::uint64_t *interactions);

/**
 * Sequential reference: runs the identical partitioned algorithm for
 * @p ranks blocks serially and returns the final position checksum.
 */
double referenceChecksum(const Config &cfg, int ranks);

/** Verification digest: sum of all position components. */
double checksum(const std::vector<Body> &bodies);

/** Run the parallel application on one scenario. */
core::RunResult run(const core::Scenario &scenario, bool optimized);

} // namespace tli::apps::barnes

#endif // TWOLAYER_APPS_BARNES_BARNES_H_
