#include "core/scenario.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>

#include "sim/hash.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace tli::core {

namespace {

/** Full-precision canonical rendering: round-trips every double. */
std::string
canonicalDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::uint64_t
Scenario::fingerprint() const
{
    // Canonical name=value serialization: field identity lives in the
    // name, not in declaration order, so reordering the struct (or
    // this list) cannot silently change the hash — the unit test pins
    // the resulting value.
    std::string s;
    s += "clusters=" + std::to_string(clusters);
    s += ";procs=" + std::to_string(procsPerCluster);
    s += ";wan_bw=" + canonicalDouble(wanBandwidthMBs);
    s += ";wan_lat=" + canonicalDouble(wanLatencyMs);
    s += ";all_myrinet=" + std::to_string(allMyrinet ? 1 : 0);
    s += ";wan_jitter=" + canonicalDouble(wanJitterFraction);
    s += ";wan_shape=";
    s += wanShape.name();
    // Dims joined the scenario with the torus/mesh shapes; append
    // them only when present, so every dimensionless fingerprint
    // (the pinned golden, existing result-cache keys) is unchanged.
    if (!wanShape.dims().empty())
        s += ";wan_dims=" + net::wanDimsSpec(wanShape.dims());
    s += ";scale=" + canonicalDouble(problemScale);
    s += ";seed=" + std::to_string(seed);
    // Impairment knobs joined the scenario later; append them only
    // when one is set, so every pre-impairment fingerprint (the pinned
    // golden, existing result-cache keys) survives unchanged while any
    // impaired scenario still hashes all five knobs.
    if (impaired() || wanOutageStartS != 0 || wanOutagePeriodS != 0 ||
        wanOutageQueue) {
        s += ";wan_loss=" + canonicalDouble(wanLossRate);
        s += ";wan_outage_start=" + canonicalDouble(wanOutageStartS);
        s += ";wan_outage_duration=" +
             canonicalDouble(wanOutageDurationS);
        s += ";wan_outage_period=" + canonicalDouble(wanOutagePeriodS);
        s += ";wan_outage_queue=" +
             std::to_string(wanOutageQueue ? 1 : 0);
    }
    // The collective policy joined the scenario with the tuned
    // dispatch work; same conditional-append rule — the default
    // (all-flat) policy adds nothing, so every earlier fingerprint
    // (pinned golden, result-cache keys) is byte-identical. The spec
    // is the same canonical string the --collectives flag and the
    // JSON reports use; a tuned policy hashes its table content.
    if (!collectives.isDefault())
        s += ";collectives=" + collectives.spec();
    return sim::fnv1a(s);
}

bool
Scenario::operator==(const Scenario &o) const
{
    return clusters == o.clusters &&
           procsPerCluster == o.procsPerCluster &&
           wanBandwidthMBs == o.wanBandwidthMBs &&
           wanLatencyMs == o.wanLatencyMs &&
           allMyrinet == o.allMyrinet &&
           wanJitterFraction == o.wanJitterFraction &&
           wanShape == o.wanShape && wanLossRate == o.wanLossRate &&
           wanOutageStartS == o.wanOutageStartS &&
           wanOutageDurationS == o.wanOutageDurationS &&
           wanOutagePeriodS == o.wanOutagePeriodS &&
           wanOutageQueue == o.wanOutageQueue &&
           problemScale == o.problemScale && seed == o.seed &&
           collectives == o.collectives;
}

std::string
Scenario::validate() const
{
    std::ostringstream os;
    if (clusters < 1) {
        os << "clusters must be >= 1, got " << clusters;
    } else if (procsPerCluster < 1) {
        os << "procs per cluster must be >= 1, got "
           << procsPerCluster;
    } else if (std::int64_t{clusters} * procsPerCluster >
               std::numeric_limits<Rank>::max()) {
        os << "clusters x procs per cluster must be <= "
           << std::numeric_limits<Rank>::max() << " ranks, got "
           << clusters << " x " << procsPerCluster;
    } else if (!(wanBandwidthMBs > 0)) {
        os << "wan bandwidth must be > 0 MByte/s, got "
           << wanBandwidthMBs;
    } else if (!(wanLatencyMs >= 0)) {
        os << "wan latency must be >= 0 ms, got " << wanLatencyMs;
    } else if (!(wanJitterFraction >= 0 && wanJitterFraction <= 1)) {
        os << "wan-jitter must be in [0, 1], got "
           << wanJitterFraction;
    } else if (std::string shape_err =
                   wanShape.validateFor(clusters);
               !shape_err.empty()) {
        os << shape_err;
    } else if (!(wanLossRate >= 0 && wanLossRate < 1)) {
        os << "wan-loss must be in [0, 1), got " << wanLossRate;
    } else if (!(wanOutageStartS >= 0)) {
        os << "wan-outage-start must be >= 0 s, got "
           << wanOutageStartS;
    } else if (!(wanOutageDurationS >= 0)) {
        os << "wan-outage-duration must be >= 0 s, got "
           << wanOutageDurationS;
    } else if (!(wanOutagePeriodS >= 0)) {
        os << "wan-outage-period must be >= 0 s, got "
           << wanOutagePeriodS;
    } else if (wanOutagePeriodS > 0 && wanOutageDurationS <= 0) {
        os << "wan-outage-period without a wan-outage-duration";
    } else if (wanOutagePeriodS > 0 &&
               wanOutagePeriodS <= wanOutageDurationS) {
        os << "wan-outage-period (" << wanOutagePeriodS
           << " s) must exceed wan-outage-duration ("
           << wanOutageDurationS << " s)";
    } else if (!(problemScale > 0)) {
        os << "problem scale must be > 0, got " << problemScale;
    } else if (collectives.isTuned() && collectives.bound()) {
        os << "scenarios carry tuned policies unbound (the Machine "
              "binds them to the scenario's gap point)";
    }
    return os.str();
}

Scenario
Scenario::checked() const
{
    const std::string err = validate();
    if (!err.empty())
        TLI_FATAL("invalid scenario: ", err);
    return *this;
}

net::FabricParams
Scenario::fabricParams() const
{
    if (allMyrinet)
        return net::Profile::allMyrinet().params();
    net::Profile profile =
        net::Profile::das(wanBandwidthMBs, wanLatencyMs)
            .withJitter(wanJitterFraction,
                        seed ^ 0x9E3779B97F4A7C15ULL)
            .withTopology(wanShape);
    if (impaired()) {
        net::Impairments imp;
        imp.lossRate = wanLossRate;
        imp.outageStart = wanOutageStartS;
        imp.outageDuration = wanOutageDurationS;
        imp.outagePeriod = wanOutagePeriodS;
        imp.outagePolicy = wanOutageQueue ? net::OutagePolicy::queue
                                          : net::OutagePolicy::drop;
        // A distinct derivation constant keeps the loss stream
        // independent of the jitter stream under the same seed.
        imp.lossSeed = seed ^ 0xC2B2AE3D27D4EB4FULL;
        profile = profile.withImpairments(imp);
    }
    return profile.params();
}

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << clusters << "x" << procsPerCluster;
    if (allMyrinet) {
        os << " all-Myrinet";
    } else {
        os << " wan=" << wanBandwidthMBs << "MB/s," << wanLatencyMs
           << "ms";
    }
    if (!allMyrinet && wanShape.dimensional())
        os << " wan-shape=" << wanShape.spec();
    if (!allMyrinet && wanLossRate > 0)
        os << " loss=" << wanLossRate;
    if (!allMyrinet && wanOutageDurationS > 0)
        os << " outage=" << wanOutageDurationS << "s";
    if (!collectives.isDefault())
        os << " collectives=" << collectives.spec();
    if (problemScale != 1.0)
        os << " scale=" << problemScale;
    return os.str();
}

double
RunResult::interVolumePerClusterMBs(int cluster) const
{
    if (runTime <= 0 ||
        cluster >= static_cast<int>(traffic.interPerCluster.size()))
        return 0;
    return traffic.interPerCluster[cluster].bytes / runTime / 1e6;
}

double
RunResult::interMsgsPerClusterPerSec(int cluster) const
{
    if (runTime <= 0 ||
        cluster >= static_cast<int>(traffic.interPerCluster.size()))
        return 0;
    return traffic.interPerCluster[cluster].messages / runTime;
}

double
RunResult::loadImbalance() const
{
    if (computePerRank.empty())
        return 0;
    double total = 0;
    double busiest = 0;
    for (double c : computePerRank) {
        total += c;
        busiest = std::max(busiest, c);
    }
    if (total <= 0)
        return 0;
    double mean = total / computePerRank.size();
    return busiest / mean;
}

} // namespace tli::core
