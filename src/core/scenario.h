/**
 * @file
 * Experiment configuration (Scenario) and measurement record
 * (RunResult) shared by every application and benchmark harness.
 */

#ifndef TWOLAYER_CORE_SCENARIO_H_
#define TWOLAYER_CORE_SCENARIO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "magpie/policy.h"
#include "net/config.h"
#include "net/fabric.h"
#include "sim/logging.h"

namespace tli::sim {
class TraceSink;
}

namespace tli::core {

/**
 * One experimental configuration: the machine shape, the wide-area
 * link speed under study, and workload scaling. Matches the knobs the
 * paper turns: cluster structure (\S5.1), inter-cluster bandwidth and
 * latency (Fig. 3), and the all-Myrinet upper-bound configuration.
 */
struct Scenario
{
    int clusters = 4;
    int procsPerCluster = 8;

    /** Wide-area application-level bandwidth, MByte/s. */
    double wanBandwidthMBs = 6.0;
    /** Wide-area one-way latency, milliseconds. */
    double wanLatencyMs = 0.5;
    /**
     * Use Myrinet parameters on the wide links too: the single-cluster
     * upper bound the paper normalizes against.
     */
    bool allMyrinet = false;

    /**
     * Wide-area latency variability fraction in [0, 1] (the paper's
     * future-work question; 0 = the fixed delay loops of the paper's
     * testbed).
     */
    double wanJitterFraction = 0.0;

    /**
     * Shape of the wide-area network (§5.1: star and ring are the
     * "worst case" against the DAS's fully connected "best case";
     * torus/mesh carry their per-dimension extents, whose product
     * must equal @c clusters — validate() enforces it).
     */
    net::WanShape wanShape;

    /**
     * Per-message wide-area drop probability in [0, 1). Non-zero loss
     * activates the reliable-delivery protocol (acknowledgements,
     * retransmission), so runs complete correctly but slower.
     */
    double wanLossRate = 0.0;
    /** First wide-area outage begins at this simulated second. */
    double wanOutageStartS = 0.0;
    /** Length of each outage window, seconds (0 = no outages). */
    double wanOutageDurationS = 0.0;
    /** Outage repetition period, seconds (0 = a single window). */
    double wanOutagePeriodS = 0.0;
    /**
     * During an outage, hold wide-area traffic at the gateway until
     * the window ends instead of dropping it.
     */
    bool wanOutageQueue = false;

    /** Workload scale factor relative to each app's default input. */
    double problemScale = 1.0;
    std::uint64_t seed = 42;

    /**
     * Per-operation collective algorithm selection for the run's
     * Communicator (--collectives / --tuning-table). The default
     * (all-flat) policy matches the paper's applications, whose
     * wide-area optimizations live in the applications themselves;
     * fingerprint() appends the policy spec only when it is
     * non-default, so existing fingerprints and cache keys are
     * preserved. A tuned policy is carried unbound — the Machine
     * binds it to this scenario's (bandwidth, latency) point.
     */
    magpie::CollectivePolicy collectives;

    /**
     * Observability sink the run's Simulation is wired to (see
     * sim/trace.h). Not owned; null (the default) traces nothing and
     * leaves the run bit-identical to an untraced one. Copied by the
     * as*() derivations — clear it on derived scenarios whose runs
     * should stay out of the trace.
     */
    sim::TraceSink *trace = nullptr;

    int totalRanks() const { return clusters * procsPerCluster; }

    /** Whether any wide-area impairment knob is set. */
    bool
    impaired() const
    {
        return wanLossRate > 0 || wanOutageDurationS > 0;
    }

    /**
     * Stable 64-bit content hash over every semantic knob (the fields
     * above except @c trace, which selects observability, not the
     * experiment). The hash is computed from a canonical name=value
     * serialization, so it is invariant under struct-field reordering
     * and pinned by a golden value in the unit tests; it changes iff a
     * knob's value changes. Doubles are rendered at full precision
     * (%.17g), so distinct values never collide by rounding.
     * Impairment knobs are appended only when one of them is
     * non-default, so every pre-impairment fingerprint — including the
     * pinned golden and the result-cache keys of existing sweeps —
     * is preserved.
     */
    std::uint64_t fingerprint() const;

    /**
     * Check every knob for consistency. Returns the empty string when
     * the scenario is runnable, else a one-line human-readable
     * description of the first problem found (e.g. "wan-loss must be
     * in [0, 1), got 1.5"). ScenarioBuilder::build() enforces this;
     * the CLI tools print it and exit instead of asserting deep in
     * the simulator.
     */
    std::string validate() const;

    /**
     * Semantic equality: all knobs equal. Like fingerprint(), ignores
     * @c trace — two scenarios describing the same experiment compare
     * equal regardless of where their runs are traced.
     */
    bool operator==(const Scenario &o) const;
    bool operator!=(const Scenario &o) const { return !(*this == o); }

    /**
     * The fabric timing this scenario describes, composed from the
     * calibrated net::Profile presets. All-Myrinet scenarios ignore
     * the wide-area knobs (jitter, shape, impairments) — every link is
     * a local one.
     */
    net::FabricParams fabricParams() const;

    /** Fluent derivation: a builder pre-seeded with this scenario. */
    class ScenarioBuilder with() const;

    /** A validated copy: TLI_FATALs with validate()'s message if the
     *  scenario is inconsistent. The builder's build() uses this. */
    Scenario checked() const;

    /** The same machine with every link at Myrinet speed. */
    Scenario
    asAllMyrinet() const
    {
        Scenario s = *this;
        s.allMyrinet = true;
        return s;
    }

    /** One processor, no communication: the sequential baseline. */
    Scenario
    asSequential() const
    {
        Scenario s = *this;
        s.clusters = 1;
        s.procsPerCluster = 1;
        s.allMyrinet = true;
        return s;
    }

    std::string describe() const;
};

/**
 * Fluent construction and derivation of scenarios. Seeded from a base
 * Scenario (Scenario::with() or the defaulted constructor), mutated
 * through named setters, and finished with build(), which validates
 * every knob — so a nonsensical configuration fails loudly at the API
 * boundary, with a readable message, instead of asserting deep inside
 * the simulator:
 *
 *     Scenario s = base.with().wanLoss(0.02).wanJitter(0.1).build();
 *
 * error() exposes the validation result without terminating, which is
 * what the CLI tools use to print it and exit gracefully.
 */
class ScenarioBuilder
{
  public:
    ScenarioBuilder() = default;
    explicit ScenarioBuilder(const Scenario &base) : s_(base) {}

    ScenarioBuilder &
    clusters(int n)
    {
        s_.clusters = n;
        return *this;
    }
    ScenarioBuilder &
    procsPerCluster(int n)
    {
        s_.procsPerCluster = n;
        return *this;
    }
    /** Wide-area application-level bandwidth, MByte/s. */
    ScenarioBuilder &
    wanBandwidth(double mbyte_per_sec)
    {
        s_.wanBandwidthMBs = mbyte_per_sec;
        return *this;
    }
    /** Wide-area one-way latency, milliseconds. */
    ScenarioBuilder &
    wanLatency(double ms)
    {
        s_.wanLatencyMs = ms;
        return *this;
    }
    ScenarioBuilder &
    allMyrinet(bool on = true)
    {
        s_.allMyrinet = on;
        return *this;
    }
    /** Wide-area latency variability fraction in [0, 1]. */
    ScenarioBuilder &
    wanJitter(double fraction)
    {
        s_.wanJitterFraction = fraction;
        return *this;
    }
    /** Wide-area shape; replaces any previously set dims. */
    ScenarioBuilder &
    wanTopology(net::WanShape shape)
    {
        s_.wanShape = std::move(shape);
        return *this;
    }
    /** Per-dimension extents for a torus/mesh wide area; keeps the
     *  current kind. Validated (product = clusters) by build(). */
    ScenarioBuilder &
    wanDims(std::vector<int> dims)
    {
        s_.wanShape =
            net::WanShape(s_.wanShape.kind(), std::move(dims));
        return *this;
    }
    /** Per-message wide-area drop probability in [0, 1). */
    ScenarioBuilder &
    wanLoss(double rate)
    {
        s_.wanLossRate = rate;
        return *this;
    }
    /** Schedule outage windows: first at @p start_s, each lasting
     *  @p duration_s, repeating every @p period_s (0 = just one). */
    ScenarioBuilder &
    wanOutage(double start_s, double duration_s, double period_s = 0)
    {
        s_.wanOutageStartS = start_s;
        s_.wanOutageDurationS = duration_s;
        s_.wanOutagePeriodS = period_s;
        return *this;
    }
    /** Queue at the gateway during outages instead of dropping. */
    ScenarioBuilder &
    wanOutageQueue(bool on = true)
    {
        s_.wanOutageQueue = on;
        return *this;
    }
    ScenarioBuilder &
    problemScale(double scale)
    {
        s_.problemScale = scale;
        return *this;
    }
    ScenarioBuilder &
    seed(std::uint64_t value)
    {
        s_.seed = value;
        return *this;
    }
    /** Per-operation collective algorithm selection. */
    ScenarioBuilder &
    collectives(magpie::CollectivePolicy policy)
    {
        s_.collectives = std::move(policy);
        return *this;
    }
    /** Observability sink for the run (not a semantic knob). */
    ScenarioBuilder &
    trace(sim::TraceSink *sink)
    {
        s_.trace = sink;
        return *this;
    }
    /**
     * Accepts only 1 and sets nothing. The partitioned engine this
     * selected is gone; the method remains solely so the benchmark
     * under perfbench/ builds unchanged, and goes with that
     * benchmark's next revision.
     */
    ScenarioBuilder &
    simThreads(int threads)
    {
        TLI_ASSERT(threads == 1,
                   "only the sequential engine remains, got ", threads,
                   " sim threads");
        return *this;
    }

    /** The first validation problem, or "" if the result is runnable. */
    std::string error() const { return s_.validate(); }

    /** Finish: TLI_FATALs with a readable message when invalid. */
    Scenario build() const { return s_.checked(); }

  private:
    Scenario s_;
};

inline ScenarioBuilder
Scenario::with() const
{
    return ScenarioBuilder(*this);
}

/**
 * The outcome of one application run: simulated run time, traffic
 * split by layer, and a correctness digest checked against the
 * sequential reference implementation.
 */
struct RunResult
{
    /** Simulated wall time of the measured phase, seconds. */
    double runTime = 0;
    /** Fabric traffic snapshot covering the measured phase. */
    net::FabricStats traffic;
    /** Application-defined correctness digest. */
    double checksum = 0;
    /** Digest matched the sequential reference. */
    bool verified = false;
    /** Charged compute seconds per rank during the measured phase. */
    std::vector<double> computePerRank;
    /**
     * Distinct collective dispatch decisions taken during the run,
     * "op:bytes=variant" in first-use order (Communicator::
     * dispatchLog). Reported per-run so tuned results stay
     * reproducible; empty for runs that issued no collectives.
     */
    std::vector<std::string> collectiveDispatch;

    /** Total inter-cluster volume rate, MByte/s. */
    double
    interVolumeMBs() const
    {
        if (runTime <= 0)
            return 0;
        return traffic.inter.bytes / runTime / 1e6;
    }

    /** Inter-cluster messages per second (whole machine). */
    double
    interMsgsPerSec() const
    {
        if (runTime <= 0)
            return 0;
        return traffic.inter.messages / runTime;
    }

    /** Per-cluster outbound inter-cluster MByte/s (Fig. 1 metric). */
    double interVolumePerClusterMBs(int cluster) const;

    /** Per-cluster outbound messages/s (Fig. 1 metric). */
    double interMsgsPerClusterPerSec(int cluster) const;

    /**
     * Load imbalance factor: the busiest rank's compute time over the
     * mean (1.0 = perfectly balanced). Zero if no compute recorded.
     */
    double loadImbalance() const;
};

} // namespace tli::core

#endif // TWOLAYER_CORE_SCENARIO_H_
