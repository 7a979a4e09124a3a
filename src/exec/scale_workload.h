/**
 * @file
 * Synthetic large-rank workload for the scaling study and the
 * determinism suite: a bulk-synchronous message exchange whose cost is
 * dominated by the simulator's per-message machinery (event queue,
 * fabric routing, ordering clamp, mailboxes) rather than by any
 * application logic — the knob that exposes how the core scales from
 * 128 to 100k ranks.
 *
 * The paper's own applications stop at 64 processors; this workload is
 * not a paper experiment but the stress harness for the engine those
 * experiments run on.
 */

#ifndef TWOLAYER_EXEC_SCALE_WORKLOAD_H_
#define TWOLAYER_EXEC_SCALE_WORKLOAD_H_

#include <cstdint>
#include <optional>

namespace tli::exec {

struct ScaleConfig
{
    int clusters = 4;
    int procsPerCluster = 32;
    /** Bulk-synchronous rounds of the exchange. */
    int rounds = 4;
    /**
     * Wide-area per-message drop probability. Nonzero engages the
     * reliable-delivery protocol (retransmissions, acks), the
     * configuration the lossy large-rank determinism test exercises.
     */
    double wanLossRate = 0.0;
    int ranks() const { return clusters * procsPerCluster; }
};

struct ScaleResult
{
    int ranks = 0;
    /** Messages applications handed to Panda. */
    std::uint64_t sent = 0;
    /** Messages delivered to receiver processes. */
    std::uint64_t delivered = 0;
    /** Events the simulator processed. */
    std::uint64_t events = 0;
    /** Order-sensitive FNV-1a digest of the delivery stream: one
     *  chain per receiving rank, folded together in rank order.
     *  Equal digests mean every rank saw the identical delivery
     *  sequence. */
    std::uint64_t digest = 0;
    /** Final virtual time, seconds. */
    double simTime = 0;
    /** Fabric ordering-clamp state actually allocated. */
    std::uint64_t activePairs = 0;
    std::uint64_t orderingBytes = 0;
    /** Host wall-clock seconds for the simulation proper. */
    double wallSeconds = 0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(events) / wallSeconds
                   : 0;
    }
};

/** Run the exchange in this process and return its measurements. */
ScaleResult runScaleWorkload(const ScaleConfig &config);

/** A ScaleResult measured in an isolated child process. */
struct ScaleChildResult
{
    ScaleResult result;
    /** The child's own peak resident set, bytes (its whole life was
     *  this workload, so the watermark is the workload's). */
    std::int64_t peakRssBytes = 0;
    bool ok = false;
};

/**
 * Re-exec this binary (/proc/self/exe) with a child marker that makes
 * main() call scaleChildMain, and collect the child's measurements
 * plus its peak RSS from wait4 rusage. Parent-side RSS watermarks are
 * monotone, so only a fresh process can attribute memory to one rank
 * count. Returns ok=false where unsupported (non-Linux) or on any
 * child failure.
 */
ScaleChildResult runScaleChild(const ScaleConfig &config);

/**
 * Child-process entry. Call first thing in main(): when the marker
 * flag is present in @p argv this runs the workload, reports on
 * stdout, and returns an exit code to return from main; otherwise
 * returns nullopt and main proceeds normally.
 */
std::optional<int> scaleChildMain(int argc, char **argv);

} // namespace tli::exec

#endif // TWOLAYER_EXEC_SCALE_WORKLOAD_H_
