#include "exec/scale_workload.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/rss.h"
#include "net/config.h"
#include "net/fabric.h"
#include "panda/panda.h"
#include "sim/simulation.h"
#include "sim/task.h"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace tli::exec {

namespace {

/** Payload the exchange ships per message (simulated bytes). */
constexpr std::uint64_t payloadBytes = 1024;
/** One rank in @ref crossStride sends cross-cluster each round. */
constexpr int crossStride = 16;

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t fnvOffset = 14695981039346656037ull;

const char childFlag[] = "--tli-scale-child=";

} // namespace

ScaleResult
runScaleWorkload(const ScaleConfig &config)
{
    const int P = config.procsPerCluster;
    const int R = config.ranks();

    sim::Simulation sim;
    net::Topology topo(config.clusters, P);
    net::Profile profile = net::Profile::das(6.0, 0.5);
    if (config.wanLossRate > 0)
        profile = profile.withImpairments(
            {.lossRate = config.wanLossRate});
    net::Fabric fabric(sim, topo, profile.params());
    panda::Panda panda(sim, fabric);

    ScaleResult out;
    out.ranks = R;

    // Per round: every rank sends one message around its local ring,
    // and one rank in crossStride sends to the same slot one cluster
    // over — the sparse pattern real apps show (neighbour exchange
    // plus a thin cross-cluster stripe), touching O(R) ordering pairs,
    // not O(R^2).
    auto localDst = [P](int r) {
        return (r / P) * P + (r % P + 1) % P;
    };
    auto crossDst = [R, P](int r) { return (r + P) % R; };

    // Per-rank accumulators: each process writes only its own slot,
    // and the slots fold together in rank order after the run.
    std::vector<std::uint64_t> sentBy(R, 0);
    std::vector<std::uint64_t> deliveredBy(R, 0);
    std::vector<std::uint64_t> digestBy(R, fnvOffset);

    auto process = [&](int r) -> sim::Task<void> {
        for (int round = 0; round < config.rounds; ++round) {
            if (P >= 2) {
                panda.send(r, localDst(r), 0, payloadBytes, round);
                ++sentBy[r];
            }
            if (r % crossStride == round % crossStride) {
                panda.send(r, crossDst(r), 0, payloadBytes, round);
                ++sentBy[r];
            }
            int expected = P >= 2 ? 1 : 0;
            // crossDst is a bijection on ranks, so in-degree is 0/1:
            // we receive iff our cross-sender is on stripe this round.
            if (((r - P % R + R) % R) % crossStride ==
                round % crossStride)
                ++expected;
            for (int k = 0; k < expected; ++k) {
                panda::Message m = co_await panda.recv(r, 0);
                ++deliveredBy[r];
                digestBy[r] = fnv1a(digestBy[r],
                                    static_cast<std::uint64_t>(
                                        m.src));
                digestBy[r] = fnv1a(digestBy[r],
                                    static_cast<std::uint64_t>(r));
                digestBy[r] = fnv1a(digestBy[r],
                                    static_cast<std::uint64_t>(
                                        m.as<int>()));
            }
        }
    };

    for (int r = 0; r < R; ++r)
        sim.spawn(process(r));

    const auto t0 = std::chrono::steady_clock::now();
    out.events = sim.run();
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.simTime = sim.now();

    out.digest = fnvOffset;
    for (int r = 0; r < R; ++r) {
        out.sent += sentBy[r];
        out.delivered += deliveredBy[r];
        out.digest = fnv1a(out.digest, digestBy[r]);
    }

    const net::FabricStats stats = fabric.stats();
    out.activePairs = stats.orderedPairs;
    out.orderingBytes = stats.orderingBytes;
    return out;
}

std::optional<int>
scaleChildMain(int argc, char **argv)
{
    const char *spec = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], childFlag, sizeof(childFlag) - 1) ==
            0)
            spec = argv[i] + sizeof(childFlag) - 1;
    }
    if (spec == nullptr)
        return std::nullopt;

    ScaleConfig config;
    if (std::sscanf(spec, "%d:%d:%d:%lf", &config.clusters,
                    &config.procsPerCluster, &config.rounds,
                    &config.wanLossRate) != 4)
        return 2;

    const ScaleResult r = runScaleWorkload(config);
    // One machine-parseable line; %.17g round-trips doubles exactly.
    // The peak RSS is self-measured (VmHWM) because the watermark
    // wait4 reports would include the parent image fork duplicated.
    std::printf("TLI_SCALE %d %llu %llu %llu %llu %.17g %llu %llu "
                "%.17g %lld\n",
                r.ranks, static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.digest), r.simTime,
                static_cast<unsigned long long>(r.activePairs),
                static_cast<unsigned long long>(r.orderingBytes),
                r.wallSeconds,
                static_cast<long long>(peakRssBytes()));
    return 0;
}

ScaleChildResult
runScaleChild(const ScaleConfig &config)
{
    ScaleChildResult out;
#if defined(__linux__)
    int fds[2];
    if (pipe(fds) != 0)
        return out;

    char spec[128];
    std::snprintf(spec, sizeof(spec), "%s%d:%d:%d:%.17g", childFlag,
                  config.clusters, config.procsPerCluster,
                  config.rounds, config.wanLossRate);

    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return out;
    }
    if (pid == 0) {
        // Child: workload report on the pipe, then exec ourselves so
        // the measured process contains nothing but the workload.
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        char exe[] = "/proc/self/exe";
        char *args[] = {exe, spec, nullptr};
        execv(exe, args);
        _exit(127);
    }

    close(fds[1]);
    std::string text;
    char buf[512];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);

    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return out;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return out;

    ScaleResult &r = out.result;
    unsigned long long sent = 0;
    unsigned long long delivered = 0;
    unsigned long long events = 0;
    unsigned long long digest = 0;
    unsigned long long pairs = 0;
    unsigned long long orderingBytes = 0;
    long long peak = 0;
    if (std::sscanf(text.c_str(),
                    "TLI_SCALE %d %llu %llu %llu %llu %lg %llu %llu "
                    "%lg %lld",
                    &r.ranks, &sent, &delivered, &events, &digest,
                    &r.simTime, &pairs, &orderingBytes,
                    &r.wallSeconds, &peak) != 10)
        return out;
    r.sent = sent;
    r.delivered = delivered;
    r.events = events;
    r.digest = digest;
    r.activePairs = pairs;
    r.orderingBytes = orderingBytes;
    out.peakRssBytes = peak;
    out.ok = true;
#else
    (void)config;
#endif
    return out;
}

} // namespace tli::exec
