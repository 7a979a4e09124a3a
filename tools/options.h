/**
 * @file
 * Shared command-line surface of the tli_* tools: one parser for the
 * scenario/application flags, the observability flags (--trace,
 * --json) and the execution-engine flags (--jobs, --cache-dir,
 * --no-cache), so every tool accepts the same spelling and new knobs
 * land everywhere at once.
 */

#ifndef TWOLAYER_TOOLS_OPTIONS_H_
#define TWOLAYER_TOOLS_OPTIONS_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "core/app.h"
#include "core/scenario.h"
#include "exec/engine.h"
#include "exec/result_cache.h"

namespace tli::tools {

/**
 * "--name=VALUE" matcher.
 * @return the VALUE part if @p arg starts with @p prefix, else null.
 */
const char *flagValue(const char *arg, const char *prefix);

/**
 * Parse all of @p text, the value part of flag @p arg, as a number.
 * A trailing character, an empty value or one outside T's range is
 * rejected: a one-line message naming @p arg goes to stderr and the
 * result is nullopt. Every numeric flag of the tools goes through
 * here, so "--clusters=abc" or "--bw=6x" never becomes a different
 * scenario.
 */
template <typename T>
std::optional<T>
parseNumber(const char *arg, const char *text)
{
    T value{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc() && ptr == end)
        return value;
    std::fprintf(stderr, "bad numeric value in %s%s\n", arg,
                 ec == std::errc::result_out_of_range
                     ? " (out of range)"
                     : "");
    return std::nullopt;
}

/**
 * parseNumber() for a count such as --jobs=: a negative value is
 * rejected too, with the same one-line message and nullopt.
 */
template <typename T>
std::optional<T>
parseCount(const char *arg, const char *text)
{
    std::optional<T> value = parseNumber<T>(arg, text);
    if (value && *value < 0) {
        std::fprintf(stderr, "bad value in %s (must be >= 0)\n", arg);
        return std::nullopt;
    }
    return value;
}

/**
 * A comma-separated list of parseNumber() doubles, e.g. --bws=, into
 * @p out. @return false (message printed, @p out untouched) if any
 * item is malformed.
 */
bool readNumberList(const char *arg, const char *csv,
                    std::vector<double> &out);

/** The wide-area axis a grid flag lists. */
enum class GridAxis
{
    /** --bws=: MByte/s, each finite and > 0. */
    bandwidth,
    /** --lats=: one-way ms, each finite and >= 0. */
    latency,
};

/**
 * readNumberList() for a wide-area grid flag (--bws=, --lats=): the
 * list must also be non-empty and every value finite, > 0 for a
 * bandwidth and >= 0 for a latency, so a grid the link model cannot
 * charge is a usage error, not an abort mid-sweep.
 * @return false (one-line message printed, @p out untouched) on an
 *         empty list or any bad item.
 */
bool readGridList(const char *arg, const char *csv, GridAxis axis,
                  std::vector<double> &out);

/**
 * The scenario-and-application options every run/sweep tool shares.
 * Each tool keeps its own loop for tool-specific flags and delegates
 * everything else to parseOne().
 */
struct ScenarioOptions
{
    std::string app = "water";
    std::string variant = "opt";
    /** The validated scenario; filled by finalize(). */
    core::Scenario scenario;
    /** --trace=FILE: Chrome trace-event JSON destination ("" = off). */
    std::string tracePath;
    /** --json=FILE: machine-readable report destination ("" = off). */
    std::string jsonPath;
    /** --jobs=N: engine worker threads (0 = hardware concurrency). */
    int jobs = 0;
    /** --cache-dir=DIR: result-cache directory ("" = no cache). */
    std::string cacheDir;
    /** --no-cache: ignore --cache-dir, always simulate. */
    bool noCache = false;

    /** Whether a result cache is active under the parsed flags. */
    bool
    cacheEnabled() const
    {
        return !cacheDir.empty() && !noCache;
    }

    /**
     * Try to consume one argv entry. Scenario flags accumulate in a
     * ScenarioBuilder; nothing is validated until finalize().
     * @return false, after a one-line message on stderr, if the flag
     *         is not one of the shared options or its value is
     *         malformed (see parseNumber).
     */
    bool parseOne(const char *arg);

    /**
     * Validate the accumulated scenario flags and, on success, fill
     * @c scenario. Call once after the argument loop.
     * @return "" when the flags describe a runnable scenario, else a
     *         readable description of the problem for the tool to
     *         print (and exit non-zero) — no assert, no stack trace.
     */
    std::string finalize();

    /** Print the help text for the shared options to @p os. */
    static void usage(std::FILE *os);

  private:
    core::ScenarioBuilder builder_;
    /** Outage knobs arrive as separate flags; joined in finalize(). */
    double outageStart_ = 0;
    double outageDuration_ = 0;
    double outagePeriod_ = 0;
    /**
     * Shape knobs are staged too, so --wan-dims=4x2 --wan-topology=
     * torus means the same as the reverse order: finalize() applies
     * the topology first and the dims on top of it.
     */
    std::optional<net::WanShape> wanShape_;
    std::optional<std::vector<int>> wanDims_;
};

/**
 * The application variant --app/--variant name, or nullopt after a
 * one-line message on stderr when there is no such pair.
 */
std::optional<core::AppVariant> lookupVariant(const ScenarioOptions &opts);

/**
 * The execution engine a tool's flags resolve to: a ResultCache when
 * --cache-dir is active (owned here so it outlives the engine) and an
 * Engine configured with the requested worker count.
 */
struct ExecSetup
{
    std::unique_ptr<exec::ResultCache> cache;
    std::unique_ptr<exec::Engine> engine;
};

/**
 * Build the engine described by @p opts.
 * @param progress emit completed/total + ETA lines on stderr.
 */
ExecSetup makeEngine(const ScenarioOptions &opts, bool progress);

} // namespace tli::tools

#endif // TWOLAYER_TOOLS_OPTIONS_H_
