#include "apps/registry.h"

#include <iterator>

#include "apps/asp/asp.h"
#include "apps/awari/awari.h"
#include "apps/barnes/barnes.h"
#include "apps/fft/fft.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"
#include "sim/logging.h"

namespace tli::apps {

namespace {

/** An application entry point; the flag selects the optimized run. */
using Runner = core::RunResult (*)(const core::Scenario &, bool);

/** One registered variant. */
struct Entry
{
    const char *app;
    bool optimized;
    Runner run;
    /** The application's best variant (optimized where present). */
    bool best;
};

core::RunResult
runFft(const core::Scenario &scenario, bool)
{
    return fft::run(scenario);
}

/**
 * Every variant, in the order the lists below report them (benchmark
 * job order depends on it). FFT has no optimized variant.
 */
constexpr Entry variants[] = {
    {"water", false, water::run, false},
    {"water", true, water::run, true},
    {"barnes", false, barnes::run, false},
    {"barnes", true, barnes::run, true},
    {"tsp", false, tsp::run, false},
    {"tsp", true, tsp::run, true},
    {"asp", false, asp::run, false},
    {"asp", true, asp::run, true},
    {"awari", false, awari::run, false},
    {"awari", true, awari::run, true},
    {"fft", false, runFft, true},
};

const char *
variantName(const Entry &e)
{
    return e.optimized ? "opt" : "unopt";
}

core::AppVariant
variantOf(const Entry &e)
{
    return {e.app, variantName(e),
            [run = e.run, opt = e.optimized](const core::Scenario &s) {
                return run(s, opt);
            }};
}

/** The table's entries that satisfy @p keep, in table order. */
template <typename Keep>
std::vector<core::AppVariant>
select(Keep keep)
{
    std::vector<core::AppVariant> out;
    out.reserve(std::size(variants));
    for (const Entry &e : variants) {
        if (keep(e))
            out.push_back(variantOf(e));
    }
    return out;
}

} // namespace

std::vector<core::AppVariant>
allVariants()
{
    return select([](const Entry &) { return true; });
}

std::vector<core::AppVariant>
unoptimizedVariants()
{
    return select([](const Entry &e) { return !e.optimized; });
}

std::vector<core::AppVariant>
bestVariants()
{
    return select([](const Entry &e) { return e.best; });
}

std::optional<core::AppVariant>
lookupVariant(const std::string &app, const std::string &variant)
{
    for (const Entry &e : variants) {
        if (e.app == app && variant == variantName(e))
            return variantOf(e);
    }
    return std::nullopt;
}

core::AppVariant
findVariant(const std::string &app, const std::string &variant)
{
    std::optional<core::AppVariant> v = lookupVariant(app, variant);
    if (!v)
        TLI_FATAL("unknown application variant ", app, "/", variant);
    return *v;
}

} // namespace tli::apps
