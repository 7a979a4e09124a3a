/**
 * @file
 * Measurement probes of the repository benchmark, all observing the
 * simulator from outside its layers: a span recorder for the traced
 * run, a counting trace sink, the counting global operator new, a
 * digest over simulated outputs, and small statistics helpers.
 */

#ifndef TLI_PERFBENCH_PROBES_H_
#define TLI_PERFBENCH_PROBES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "sim/trace.h"

namespace perfbench {

/** Host wall-clock seconds (steady clock). */
double wallNow();

/** User + system CPU seconds consumed by this process so far. */
double cpuNow();

/**
 * Spans around the benchmark's calls into the layers: name, start,
 * end and parent span id. Kept in memory and written out at exit. Not
 * thread-safe: spans are recorded only in the traced run, which uses
 * one worker, so every span opens and closes on the calling thread.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        /** Index of the enclosing span, -1 at the root. */
        int parent = -1;
    };

    int open(std::string name);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the part of it that child spans cover. */
    std::vector<double> selfTimes() const;

    /** Write every span as one JSON document to @p path. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/** RAII span; a no-op when the recorder is null (untraced runs). */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, std::string name)
        : rec_(rec), id_(rec ? rec->open(std::move(name)) : -1)
    {
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

/** Counts the events of the public trace stream. */
class CountingSink : public tli::sim::TraceSink
{
  public:
    void onMessage(const tli::sim::MessageTrace &) override { ++messages; }
    void onPhase(const tli::sim::PhaseTrace &) override { ++phases; }

    std::uint64_t messages = 0;
    std::uint64_t phases = 0;
};

/** Heap allocations made through global operator new while enabled. */
struct AllocCounts
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/** Start counting (from zero); counting is off by default. */
void allocCountingStart();
/** Stop counting and return what was counted since the start. */
AllocCounts allocCountingStop();

/** FNV-1a over the bit patterns of simulated outputs. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Run time, checksum, verification, per-rank compute, collective
     *  dispatch log and every FabricStats counter. */
    void result(const tli::core::RunResult &r);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/** Quantile q in [0, 1] by linear interpolation; 0 for no samples. */
double quantile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

} // namespace perfbench

#endif // TLI_PERFBENCH_PROBES_H_
