/**
 * @file
 * FFT: the one-dimensional Fast Fourier Transform application (paper
 * §3.1/§3.2).
 *
 * The transpose algorithm (six-step FFT): the n-point signal is viewed
 * as an r x c matrix distributed by rows; three distributed matrix
 * transposes (personalized all-to-all exchanges) are interspersed with
 * local row FFTs and twiddle scaling. The communication pattern —
 * matrix transpose with little computation — is the one the paper
 * found to resist optimization, so FFT has no optimized variant.
 */

#ifndef TWOLAYER_APPS_FFT_FFT_H_
#define TWOLAYER_APPS_FFT_FFT_H_

#include <cstdint>

#include "apps/fft/kernel.h"
#include "core/scenario.h"

namespace tli::apps::fft {

struct Config
{
    /** Transform size; must be an even power of two (paper: 2^20). */
    int n = 1 << 18;
    std::uint64_t seed = 42;

    static Config fromScenario(const core::Scenario &scenario);

    /** The paper's transform size; total costs are pinned to it. */
    static constexpr double paperN = 1048576.0;

    /**
     * Simulated cost of one butterfly, scaled so the whole run charges
     * the paper's sequential time (Table 1: 2^20 points, 0.26 s on 32
     * processors at speedup 32.9, i.e. ~8.5 s sequential) regardless
     * of the reduced element count.
     */
    double
    costPerButterfly() const
    {
        const double paper_butterflies = 0.5 * paperN * 20.0;
        return 815e-9 * paper_butterflies / butterflies(n);
    }

    /** Factor applied to transpose-block wire sizes so the transfer
     *  volume matches the paper's 2^20-point transform. */
    double
    wireScale() const
    {
        return paperN / n;
    }
};

/** Run the parallel application on one scenario. */
core::RunResult run(const core::Scenario &scenario);

} // namespace tli::apps::fft

#endif // TWOLAYER_APPS_FFT_FFT_H_
