/**
 * @file
 * TSP: the branch-and-bound Traveling Salesperson application (paper
 * §3.1/§3.2).
 *
 * Workers fetch jobs (partial tours of fixed depth) from a job queue
 * and search them depth-first with a fixed cutoff bound, which makes
 * runs deterministic (the paper's device for reproducible
 * measurements). The unoptimized program uses one centralized queue —
 * on 4 clusters 75% of the fetches cross the slow links; the
 * optimized program distributes the queue per cluster with
 * inter-cluster work stealing.
 */

#ifndef TWOLAYER_APPS_TSP_TSP_H_
#define TWOLAYER_APPS_TSP_TSP_H_

#include <cstdint>
#include <vector>

#include "core/scenario.h"

namespace tli::apps::tsp {

/** Symmetric distance matrix. */
using DistanceMatrix = std::vector<std::vector<int>>;

/** A job: a partial tour starting at city 0. */
using Tour = std::vector<int>;

struct Config
{
    /** Number of cities (paper: 16; scaled default 13). */
    int cities = 13;
    /** Partial-tour length of one job (paper: 5 cities). */
    int jobDepth = 5;
    std::uint64_t seed = 42;

    /**
     * Total sequential search time the cost model is calibrated to:
     * Table 1 gives 4.7 s on 32 processors at speedup 29.2, i.e.
     * ~137 s sequential. The per-node cost is derived per input as
     * totalSequentialSeconds / (sequential node count).
     */
    double totalSequentialSeconds = 137.0;

    static Config fromScenario(const core::Scenario &scenario);
};

/** Deterministic random symmetric distances in [1, 100]. */
DistanceMatrix makeCities(int n, std::uint64_t seed);

/** Result of a search: best tour length and nodes expanded. */
struct SearchResult
{
    int bestLength = 0;
    std::uint64_t nodesVisited = 0;
};

/** Exact optimum (classic improving-bound branch and bound). */
int optimalTourLength(const DistanceMatrix &dist);

/** All partial tours of the configured depth, in generation order. */
std::vector<Tour> makeJobs(const DistanceMatrix &dist, int depth);

/**
 * Depth-first search below one job with a fixed cutoff: prunes on a
 * simple remaining-cities lower bound, never tightens the cutoff, so
 * the node count is schedule-independent.
 */
SearchResult searchJob(const DistanceMatrix &dist, const Tour &job,
                       int cutoff);

/** Sequential reference: every job searched with the fixed cutoff. */
SearchResult searchAll(const DistanceMatrix &dist,
                       const std::vector<Tour> &jobs, int cutoff);

/** Run the parallel application on one scenario. */
core::RunResult run(const core::Scenario &scenario, bool optimized);

} // namespace tli::apps::tsp

#endif // TWOLAYER_APPS_TSP_TSP_H_
