#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

namespace perfbench {

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocCalls{0};
std::atomic<std::uint64_t> gAllocBytes{0};

void *
countedAlloc(std::size_t n)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gAllocCalls.fetch_add(1, std::memory_order_relaxed);
        gAllocBytes.fetch_add(n, std::memory_order_relaxed);
    }
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gAllocCalls.fetch_add(1, std::memory_order_relaxed);
        gAllocBytes.fetch_add(n, std::memory_order_relaxed);
    }
    void *p = nullptr;
    const std::size_t align =
        std::max(static_cast<std::size_t>(al), sizeof(void *));
    if (posix_memalign(&p, align, n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

void
allocCountingStart()
{
    gAllocCalls.store(0);
    gAllocBytes.store(0);
    gCounting.store(true);
}

AllocCounts
allocCountingStop()
{
    gCounting.store(false);
    return {gAllocCalls.load(), gAllocBytes.load()};
}

int
SpanRecorder::open(std::string name)
{
    spans_.push_back({std::move(name), wallNow(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
SpanRecorder::close(int id)
{
    spans_[id].end = wallNow();
    current_ = spans_[id].parent;
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children nest strictly inside their parent on one thread, so
    // their durations never overlap each other.
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    return self;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"schema\": \"perfbench-spans-v1\", \"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string name;
        for (char c : s.name) {
            if (c == '"' || c == '\\')
                name += '\\';
            name += c;
        }
        std::fprintf(f,
                     "%s\n {\"id\": %zu, \"parent\": %d, \"name\": "
                     "\"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                     i ? "," : "", i, s.parent, name.c_str(),
                     s.start - t0, s.end - t0);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
Digest::result(const tli::core::RunResult &r)
{
    f64(r.runTime);
    f64(r.checksum);
    u64(r.verified);
    u64(r.computePerRank.size());
    for (double c : r.computePerRank)
        f64(c);
    u64(r.collectiveDispatch.size());
    for (const std::string &d : r.collectiveDispatch)
        str(d);

    const tli::net::FabricStats &t = r.traffic;
    auto link = [this](const tli::net::LinkStats &s) {
        u64(s.messages);
        u64(s.bytes);
        f64(s.busyTime);
    };
    auto links = [&](const std::vector<tli::net::LinkStats> &v) {
        u64(v.size());
        for (const auto &s : v)
            link(s);
    };
    u64(static_cast<std::uint64_t>(t.clusters));
    link(t.intra);
    link(t.inter);
    links(t.interPerCluster);
    f64(t.wanTransit);
    u64(t.wanLinks.size());
    for (const auto &w : t.wanLinks) {
        u64(static_cast<std::uint64_t>(w.a));
        u64(static_cast<std::uint64_t>(w.b));
        link(w.stats);
    }
    u64(t.wanLossDrops);
    u64(t.wanOutageDrops);
    u64(t.orderedPairs);
    u64(t.orderingBytes);
    u64(t.delivery.retransmits);
    u64(t.delivery.duplicates);
    u64(t.delivery.acks);
    u64(t.delivery.duplicateAcks);
    links(t.nics);
    links(t.gatewayOut);
    links(t.gatewayIn);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace perfbench

// The counting allocator: every global new/delete of the benchmark
// binary, simulator libraries included, goes through these.
void *operator new(std::size_t n) { return perfbench::countedAlloc(n); }
void *operator new[](std::size_t n) { return perfbench::countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return perfbench::countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return perfbench::countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return perfbench::countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return perfbench::countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
