#include "apps/registry.h"

#include "apps/asp/asp.h"
#include "apps/awari/awari.h"
#include "apps/barnes/barnes.h"
#include "apps/fft/fft.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"
#include "sim/logging.h"

namespace tli::apps {

std::vector<core::AppVariant>
allVariants()
{
    return {
        water::unoptimized(),  water::optimized(),
        barnes::unoptimized(), barnes::optimized(),
        tsp::unoptimized(),    tsp::optimized(),
        asp::unoptimized(),    asp::optimized(),
        awari::unoptimized(),  awari::optimized(),
        fft::unoptimized(),
    };
}

std::vector<core::AppVariant>
unoptimizedVariants()
{
    return {
        water::unoptimized(), barnes::unoptimized(),
        tsp::unoptimized(),   asp::unoptimized(),
        awari::unoptimized(), fft::unoptimized(),
    };
}

std::vector<core::AppVariant>
bestVariants()
{
    return {
        water::optimized(), barnes::optimized(), tsp::optimized(),
        asp::optimized(),   awari::optimized(),  fft::unoptimized(),
    };
}

std::optional<core::AppVariant>
lookupVariant(const std::string &app, const std::string &variant)
{
    for (auto &v : allVariants()) {
        if (v.app == app && v.variant == variant)
            return v;
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
