/**
 * @file
 * TuningTable: the in-memory decision table behind magpie::Tuned. The
 * tuner (tools/tli_tune) sweeps every algorithm variant per collective
 * over a (gap, size) grid and records the winner; a tuned Communicator
 * dispatches from the nearest trained cell at runtime. JSON
 * persistence ("tli-tuning-v1") lives in exec/tuning_io.h so this
 * library stays free of the core JSON dependency.
 */

#ifndef TWOLAYER_MAGPIE_TUNING_H_
#define TWOLAYER_MAGPIE_TUNING_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "magpie/policy.h"

namespace tli::magpie {

/**
 * Per-(gap, operation, size) winning variants for one machine shape.
 * Cells within an operation are sorted by ascending message size; an
 * operation whose dispatch key is not size-stable across ranks (the
 * ragged *v forms, scatter, barrier) carries a single aggregate cell
 * with sizeBytes == 0.
 */
class TuningTable
{
  public:
    struct GapPoint
    {
        double bwMBs = 0;
        double latMs = 0;
    };

    struct Cell
    {
        std::uint64_t sizeBytes = 0;
        Choice choice;
    };

    using OpCells = std::vector<Cell>;

    int clusters = 0;
    int procsPerCluster = 0;
    std::vector<GapPoint> gaps;
    /** Indexed [gap][op]; every op must have at least one cell. */
    std::vector<std::array<OpCells, kOpCount>> cells;

    /** Sorts cells and checks invariants; panics on a malformed table. */
    void finalize();

    /** Index of the gap point nearest in (log bw, log lat) space. */
    int nearestGap(double bwMBs, double latMs) const;

    /**
     * The trained choice for @p op at @p gap, picking the cell whose
     * size is nearest in log space (ties to the smaller size).
     */
    const Choice &choose(int gap, Op op, std::uint64_t sizeBytes) const;

    /**
     * Canonical text rendering of the decision content (schema line,
     * machine shape, gap points, cells). contentHash() is FNV-1a over
     * exactly this text, so two tables dispatch identically iff their
     * hashes match.
     */
    std::string canonicalText() const;
    std::uint64_t contentHash() const;
};

/**
 * The variants the tuner enumerates for @p op: MagPIe first (so exact
 * ties keep the static cluster-aware choice), then flat, then the
 * segmented ladder where the operation supports it. Flat bcast is
 * excluded by design: a tuned bcast decision is the root's alone, and
 * non-root ranks can follow the magpie/segmented wire protocols
 * without knowing it — but not the flat binomial tree, which crosses
 * cluster boundaries.
 */
std::vector<Choice> tuningCandidates(Op op);

} // namespace tli::magpie

#endif // TWOLAYER_MAGPIE_TUNING_H_
