/**
 * @file
 * CollectivePolicy: the per-operation algorithm-selection value type
 * that replaced the old binary Algorithm{flat, magpie} enum. A policy
 * maps each of the fourteen collective operations to a named variant
 * (flat, magpie, or segmented with a segment-size knob), or defers the
 * whole mapping to a persisted tuning table ("tuned" mode). The
 * canonical spec round trip (spec() / parseCollectivePolicy) is the one
 * spelling used by the --collectives flag, JSON reports, and
 * Scenario::fingerprint().
 */

#ifndef TWOLAYER_MAGPIE_POLICY_H_
#define TWOLAYER_MAGPIE_POLICY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace tli::magpie {

class TuningTable;

/** The fourteen collective operations, in canonical report order. */
enum class Op
{
    barrier,
    bcast,
    gather,
    gatherv,
    scatter,
    scatterv,
    allgather,
    allgatherv,
    alltoall,
    alltoallv,
    reduce,
    allreduce,
    reduce_scatter,
    scan,
};

inline constexpr int kOpCount = 14;

const char *opName(Op op);
std::optional<Op> parseOp(std::string_view text);

/** One collective-algorithm family. */
enum class Family
{
    /** Topology-oblivious baselines in the style of MPICH 1.x. */
    flat,
    /** Cluster-aware wide-area-optimal algorithms (MagPIe). */
    magpie,
    /** Cluster-aware with pipelined fixed-size segments. */
    segmented,
};

/**
 * The algorithm variant chosen for one operation. segmentBytes is
 * significant only for Family::segmented, where it is the pipelining
 * granularity (> 0). Specs: "flat", "magpie", "seg:16k" (k/M suffixes
 * accepted; the canonical rendering uses the largest suffix that
 * divides evenly).
 */
struct Choice
{
    Family family = Family::flat;
    std::uint32_t segmentBytes = 0;

    static Choice flat() { return {Family::flat, 0}; }
    static Choice magpie() { return {Family::magpie, 0}; }
    static Choice segmented(std::uint32_t bytes)
    {
        return {Family::segmented, bytes};
    }

    std::string spec() const;
    bool operator==(const Choice &) const = default;
};

std::optional<Choice> parseChoice(std::string_view text);

/** Whether @p op has a segmented variant (bcast/reduce/allreduce). */
bool segmentedSupported(Op op);

/**
 * Whether a tuned policy looks @p op up by payload size. Barrier,
 * scatter, gatherv, scatterv, allgatherv and alltoallv do not: their
 * payload differs across ranks or is significant at the root only,
 * yet every rank must reach the same decision, so each keys on one
 * aggregate table cell of size 0.
 */
bool keyedBySize(Op op);

/**
 * Per-operation algorithm selection for a Communicator. A plain value
 * type: copyable, comparable, and round-trippable through its spec
 * string ("flat", "magpie", "magpie,bcast=seg:16k", ...).
 *
 * Tuned mode holds a shared decision table instead of fixed choices;
 * its spec is "tuned:<16-hex content hash>" (not parseable back — a
 * tuned policy is reconstructed from the table file). A tuned policy
 * must be bound to one of the table's (bandwidth, latency) gap points
 * with boundTo() before it can drive a Communicator.
 */
class CollectivePolicy
{
  public:
    /** Default: every operation uses the flat family. */
    CollectivePolicy() = default;

    static CollectivePolicy flat() { return CollectivePolicy{}; }
    static CollectivePolicy magpie();
    static CollectivePolicy tuned(std::shared_ptr<const TuningTable> table);

    const Choice &choice(Op op) const
    {
        return choices_[static_cast<int>(op)];
    }
    /** Panics on seg for an unsupported op, or on a tuned policy. */
    void set(Op op, Choice c);

    bool isTuned() const { return table_ != nullptr; }
    const TuningTable *table() const { return table_.get(); }
    std::shared_ptr<const TuningTable> sharedTable() const
    {
        return table_;
    }

    /** Tuned only: whether boundTo() has fixed the gap point. */
    bool bound() const { return gapIndex_ >= 0; }
    int gapIndex() const { return gapIndex_; }

    /**
     * Tuned only: return a copy bound to the table gap point nearest
     * (log-space) to the given wide-area bandwidth/latency.
     */
    CollectivePolicy boundTo(double bwMBs, double latMs) const;

    /** True for the default (all-flat, un-tuned) policy. */
    bool isDefault() const;

    /**
     * Canonical spec: a family head token covering the majority of the
     * operations plus ",op=variant" overrides in Op order, e.g.
     * "magpie,bcast=seg:16k". parseCollectivePolicy round-trips it.
     */
    std::string spec() const;

    /**
     * The message-tag phase budget one collective call may consume
     * under this policy on a machine of @p totalRanks ranks. The
     * Communicator derives its tag spacing from this (clamped below at
     * the historical 160 so existing runs keep identical tags).
     */
    int phasesPerCall(int totalRanks) const;

    bool operator==(const CollectivePolicy &o) const;
    bool operator!=(const CollectivePolicy &o) const { return !(*this == o); }

  private:
    std::array<Choice, kOpCount> choices_{};
    std::shared_ptr<const TuningTable> table_;
    int gapIndex_ = -1;
};

/**
 * Parse a policy spec: a head family token ("flat" / "magpie") and/or
 * comma-separated "op=variant" overrides. Returns nullopt on unknown
 * ops/variants, malformed sizes, seg on an unsupported op, or a
 * "tuned:..." spec (tuned policies load from a table file instead).
 */
std::optional<CollectivePolicy> parseCollectivePolicy(std::string_view text);

} // namespace tli::magpie

#endif // TWOLAYER_MAGPIE_POLICY_H_
