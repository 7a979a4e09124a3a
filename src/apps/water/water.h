/**
 * @file
 * Water: the n-squared molecular dynamics application (paper
 * §3.1/§3.2).
 *
 * Molecules are block-distributed; every iteration each processor
 * fetches the positions of half of the other processors ("all to
 * half"), computes the pair forces it owns, and returns combined
 * force updates. The unoptimized program fetches and updates straight
 * to the owners, so the same molecule data crosses the same slow link
 * once per requester; the optimized program routes fetches through a
 * per-cluster coordinator cache and sends updates through a two-level
 * reduction tree, so each datum crosses each slow link once.
 */

#ifndef TWOLAYER_APPS_WATER_WATER_H_
#define TWOLAYER_APPS_WATER_WATER_H_

#include <cstdint>
#include <vector>

#include "core/scenario.h"
#include "sim/types.h"

namespace tli::apps::water {

struct Config
{
    /** Number of molecules (paper: 1500; scaled default 600). */
    int n = 600;
    /** Force/integration iterations. */
    int iterations = 3;
    std::uint64_t seed = 42;

    static Config fromScenario(const core::Scenario &scenario);

    /** The paper's molecule count; per-iteration costs are pinned
     *  to it. */
    static constexpr int paperN = 1500;

    /**
     * Simulated cost of one pair interaction: ~8.4 us at the paper's
     * n=1500 (Table 1: 9.1 s on 32 processors at speedup 31.2 over
     * ~30 iterations), scaled with (paperN/n)^2 so the per-iteration
     * compute time matches the paper at reduced sizes.
     */
    double
    costPerPair() const
    {
        return 8.4e-6 * (static_cast<double>(paperN) / n) *
               (static_cast<double>(paperN) / n);
    }

    /** Factor applied to message sizes so the per-iteration wire
     *  volume matches the paper's molecule count. */
    double
    wireScale() const
    {
        return static_cast<double>(paperN) / n;
    }
};

/**
 * The "half" convention: the set of peer ranks whose molecules rank
 * @p self computes interactions against (and therefore fetches).
 */
std::vector<Rank> halfOf(Rank self, int p);

/** Ranks that compute interactions for @p self's molecules. */
std::vector<Rank> contributorsOf(Rank self, int p);

/** Run the parallel application on one scenario. */
core::RunResult run(const core::Scenario &scenario, bool optimized);

/**
 * Ablation entry point: enable the two optimizations independently —
 * coordinator caching for position fetches and the two-level
 * reduction tree for force updates.
 */
core::RunResult runWith(const core::Scenario &scenario,
                        bool cached_fetch, bool reduced_updates);

} // namespace tli::apps::water

#endif // TWOLAYER_APPS_WATER_WATER_H_
