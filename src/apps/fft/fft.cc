#include "apps/fft/fft.h"

#include <cmath>
#include <numbers>
#include <utility>

#include "apps/common.h"
#include "apps/partition.h"

namespace tli::apps::fft {

namespace {

constexpr int transposeTagBase = 5100;

/** Rows of a distributed complex matrix block. */
using Block = std::vector<Signal>;

struct Run
{
    Machine &machine;
    Config cfg;
    int r; // matrix rows (first dimension)
    int c; // matrix columns

    /** Per-rank initial row blocks of the r x c input matrix. */
    std::vector<Block> input;

    double expectedChecksum = 0;
    double checksumAccum = 0;
};

/**
 * One distributed transpose: the calling rank owns rows
 * [lo, hi) of an in_rows x in_cols matrix and ends up with its block
 * of the transposed in_cols x in_rows matrix. A personalized
 * all-to-all: one message per (source, destination) pair.
 */
sim::Task<Block>
transposeStep(Run &run, Rank self, Block in, int in_rows, int in_cols,
              int tag)
{
    Machine &m = run.machine;
    sim::PhaseScope span = m.phase(self, "transpose");
    const int p = m.size();
    const int my_in_lo = blockLo(self, in_rows, p);
    const int my_in_hi = blockHi(self, in_rows, p);
    const int my_out_lo = blockLo(self, in_cols, p);
    const int my_out_hi = blockHi(self, in_cols, p);

    Block out(my_out_hi - my_out_lo, Signal(in_rows));

    // Pack and ship one sub-block per destination; keep our own.
    for (Rank dst = 0; dst < p; ++dst) {
        const int dst_lo = blockLo(dst, in_cols, p);
        const int dst_hi = blockHi(dst, in_cols, p);
        if (dst == self) {
            for (int col = dst_lo; col < dst_hi; ++col) {
                for (int row = my_in_lo; row < my_in_hi; ++row)
                    out[col - my_out_lo][row] =
                        in[row - my_in_lo][col];
            }
            continue;
        }
        Signal packed;
        packed.reserve(static_cast<std::size_t>(dst_hi - dst_lo) *
                       (my_in_hi - my_in_lo));
        for (int col = dst_lo; col < dst_hi; ++col) {
            for (int row = my_in_lo; row < my_in_hi; ++row)
                packed.push_back(in[row - my_in_lo][col]);
        }
        const auto bytes = static_cast<std::uint64_t>(
            16 * packed.size() * run.cfg.wireScale());
        m.panda().send(self, dst, tag, bytes, std::move(packed));
    }

    // Collect the other ranks' sub-blocks.
    for (int received = 0; received < p - 1; ++received) {
        panda::Message msg = co_await m.panda().recv(self, tag);
        Signal packed = msg.take<Signal>();
        const Rank src = msg.src;
        const int src_lo = blockLo(src, in_rows, p);
        const int src_hi = blockHi(src, in_rows, p);
        std::size_t idx = 0;
        for (int col = my_out_lo; col < my_out_hi; ++col) {
            for (int row = src_lo; row < src_hi; ++row)
                out[col - my_out_lo][row] = packed[idx++];
        }
        TLI_ASSERT(idx == packed.size(), "transpose block size");
    }
    co_return out;
}

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    const int p = m.size();
    const int r = run.r;
    const int c = run.c;
    const int n = run.cfg.n;
    Cpu cpu(run.cfg.costPerButterfly());

    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    // Step 1: transpose A (r x c) -> B (c x r).
    Block block = co_await transposeStep(run, self,
                                         std::move(run.input[self]), r,
                                         c, transposeTagBase + 0);

    // Step 2: row FFTs of length r, plus twiddle factors.
    const int b_lo = blockLo(self, c, p);
    for (std::size_t i = 0; i < block.size(); ++i) {
        fftInPlace(block[i]);
        const int i2 = b_lo + static_cast<int>(i);
        for (int k1 = 0; k1 < r; ++k1) {
            const double angle = -2.0 * std::numbers::pi *
                                 static_cast<double>(i2) * k1 / n;
            block[i][k1] *= Complex(std::cos(angle), std::sin(angle));
        }
    }
    co_await m.compute(self, cpu,
                       block.size() * (butterflies(r) + 0.5 * r));

    // Step 3: transpose B (c x r) -> C (r x c).
    block = co_await transposeStep(run, self, std::move(block), c, r,
                                   transposeTagBase + 1);

    // Step 4: row FFTs of length c.
    for (auto &row : block)
        fftInPlace(row);
    co_await m.compute(self, cpu, block.size() * butterflies(c));

    // Step 5: transpose C (r x c) -> D (c x r): natural output order.
    block = co_await transposeStep(run, self, std::move(block), r, c,
                                   transposeTagBase + 2);

    co_await m.comm().barrier(self);
    if (self == 0)
        m.endMeasurement();

    double local = 0;
    for (const Signal &row : block) {
        for (const Complex &v : row)
            local += std::abs(v);
    }
    magpie::Vec contrib{local};
    magpie::Vec total = co_await m.comm().reduce(
        self, 0, std::move(contrib), magpie::ReduceOp::sum());
    if (self == 0)
        run.checksumAccum = total[0];
}

double
referenceChecksum(const Config &cfg)
{
    static Memo<std::pair<int, std::uint64_t>, double> memo;
    return memo.get({cfg.n, cfg.seed}, [&] {
        Signal a = makeInput(cfg.n, cfg.seed);
        fftInPlace(a);
        return checksum(a);
    });
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    // Scale in whole powers of 4 so r = c stays an integer power of 2.
    int shift = 0;
    double s = scenario.problemScale;
    while (s >= 4.0) {
        s /= 4.0;
        shift += 2;
    }
    while (s <= 0.25) {
        s *= 4.0;
        shift -= 2;
    }
    cfg.n = 1 << std::max(12, std::min(20, 18 + shift));
    cfg.seed = scenario.seed;
    return cfg;
}

core::RunResult
run(const core::Scenario &scenario)
{
    Machine machine(scenario);
    Config cfg = Config::fromScenario(scenario);

    Run state{machine, cfg, 0, 0, {}, 0, 0};
    const int m = log2OfPow2(cfg.n);
    TLI_ASSERT(m % 2 == 0, "FFT size must be an even power of two");
    state.r = 1 << (m / 2);
    state.c = 1 << (m / 2);
    const int p = machine.size();
    TLI_ASSERT(p <= state.r, "more ranks than matrix rows");

    Signal x = makeInput(cfg.n, cfg.seed);
    state.input.resize(p);
    for (Rank rank = 0; rank < p; ++rank) {
        const int lo = blockLo(rank, state.r, p);
        const int hi = blockHi(rank, state.r, p);
        for (int row = lo; row < hi; ++row) {
            state.input[rank].emplace_back(
                x.begin() + static_cast<long>(row) * state.c,
                x.begin() + static_cast<long>(row + 1) * state.c);
        }
    }
    state.expectedChecksum = referenceChecksum(cfg);

    machine.runWorkers([&](Rank rank) { return worker(state, rank); });

    bool ok = closeEnough(state.checksumAccum, state.expectedChecksum,
                          1e-6);
    return machine.finishMeasurement(state.checksumAccum, ok);
}

} // namespace tli::apps::fft
