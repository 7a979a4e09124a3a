#include "options.h"

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "exec/tuning_io.h"
#include "magpie/policy.h"

namespace tli::tools {

namespace {

/** parseNumber() into @p out; false (message printed) on bad input. */
template <typename T>
bool
readNumber(const char *arg, const char *text, T &out)
{
    std::optional<T> n = parseNumber<T>(arg, text);
    if (n)
        out = *n;
    return n.has_value();
}

using Builder = core::ScenarioBuilder;

/** parseNumber() handed to the builder setter @p set. */
template <typename T>
bool
readNumber(const char *arg, const char *text, Builder &builder,
           Builder &(Builder::*set)(T))
{
    T value{};
    if (!readNumber(arg, text, value))
        return false;
    (builder.*set)(value);
    return true;
}

} // namespace

const char *
flagValue(const char *arg, const char *prefix)
{
    std::size_t n = std::strlen(prefix);
    return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

bool
readNumberList(const char *arg, const char *csv,
               std::vector<double> &out)
{
    std::vector<double> list;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        std::optional<double> x = parseNumber<double>(arg, item.c_str());
        if (!x)
            return false;
        list.push_back(*x);
    }
    out = std::move(list);
    return true;
}

bool
ScenarioOptions::parseOne(const char *arg)
{
    if (const char *v = flagValue(arg, "--app="))
        app = v;
    else if (const char *v = flagValue(arg, "--variant="))
        variant = v;
    else if (const char *v = flagValue(arg, "--clusters="))
        return readNumber(arg, v, builder_, &Builder::clusters);
    else if (const char *v = flagValue(arg, "--procs="))
        return readNumber(arg, v, builder_, &Builder::procsPerCluster);
    else if (const char *v = flagValue(arg, "--wan-bw="))
        return readNumber(arg, v, builder_, &Builder::wanBandwidth);
    else if (const char *v = flagValue(arg, "--bw="))
        return readNumber(arg, v, builder_, &Builder::wanBandwidth);
    else if (const char *v = flagValue(arg, "--wan-lat="))
        return readNumber(arg, v, builder_, &Builder::wanLatency);
    else if (const char *v = flagValue(arg, "--lat="))
        return readNumber(arg, v, builder_, &Builder::wanLatency);
    else if (const char *v = flagValue(arg, "--wan-jitter="))
        return readNumber(arg, v, builder_, &Builder::wanJitter);
    else if (const char *v = flagValue(arg, "--jitter="))
        return readNumber(arg, v, builder_, &Builder::wanJitter);
    else if (const char *v = flagValue(arg, "--wan-loss="))
        return readNumber(arg, v, builder_, &Builder::wanLoss);
    else if (const char *v = flagValue(arg, "--wan-outage-start="))
        return readNumber(arg, v, outageStart_);
    else if (const char *v = flagValue(arg, "--wan-outage-duration="))
        return readNumber(arg, v, outageDuration_);
    else if (const char *v = flagValue(arg, "--wan-outage-period="))
        return readNumber(arg, v, outagePeriod_);
    else if (std::strcmp(arg, "--wan-outage-queue") == 0)
        builder_.wanOutageQueue();
    else if (const char *v = flagValue(arg, "--wan-topology=")) {
        std::optional<net::WanShape> shape = net::parseWanShape(v);
        if (!shape) {
            std::fprintf(stderr, "unknown wan topology: %s\n", v);
            return false;
        }
        wanShape_ = std::move(*shape);
    } else if (const char *v = flagValue(arg, "--wan-dims=")) {
        std::optional<std::vector<int>> dims = net::parseWanDims(v);
        if (!dims) {
            std::fprintf(stderr, "bad wan dims: %s\n", v);
            return false;
        }
        wanDims_ = std::move(*dims);
    } else if (const char *v = flagValue(arg, "--collectives=")) {
        std::optional<magpie::CollectivePolicy> policy =
            magpie::parseCollectivePolicy(v);
        if (!policy) {
            std::fprintf(stderr, "bad collective policy: %s\n", v);
            return false;
        }
        builder_.collectives(std::move(*policy));
    } else if (const char *v = flagValue(arg, "--tuning-table=")) {
        std::string err;
        std::shared_ptr<const magpie::TuningTable> table =
            exec::loadTuningTable(v, &err);
        if (!table) {
            std::fprintf(stderr, "cannot load tuning table %s\n",
                         err.c_str());
            return false;
        }
        builder_.collectives(magpie::CollectivePolicy::tuned(table));
    } else if (const char *v = flagValue(arg, "--scale="))
        return readNumber(arg, v, builder_, &Builder::problemScale);
    else if (const char *v = flagValue(arg, "--seed="))
        return readNumber(arg, v, builder_, &Builder::seed);
    else if (std::strcmp(arg, "--all-myrinet") == 0)
        builder_.allMyrinet();
    else if (const char *v = flagValue(arg, "--trace="))
        tracePath = v;
    else if (const char *v = flagValue(arg, "--json="))
        jsonPath = v;
    else if (const char *v = flagValue(arg, "--jobs=")) {
        const std::optional<int> n = parseCount<int>(arg, v);
        if (n)
            jobs = *n;
        return n.has_value();
    }
    else if (const char *v = flagValue(arg, "--cache-dir="))
        cacheDir = v;
    else if (std::strcmp(arg, "--no-cache") == 0)
        noCache = true;
    else {
        std::fprintf(stderr, "unknown option: %s (see --help)\n", arg);
        return false;
    }
    return true;
}

std::string
ScenarioOptions::finalize()
{
    builder_.wanOutage(outageStart_, outageDuration_, outagePeriod_);
    // Topology before dims: --wan-dims must land on the requested
    // shape no matter which flag came first on the command line.
    if (wanShape_)
        builder_.wanTopology(*wanShape_);
    if (wanDims_)
        builder_.wanDims(*wanDims_);
    std::string err = builder_.error();
    if (err.empty())
        scenario = builder_.build();
    return err;
}

std::optional<core::AppVariant>
lookupVariant(const ScenarioOptions &opts)
{
    std::optional<core::AppVariant> v =
        apps::lookupVariant(opts.app, opts.variant);
    if (!v) {
        std::fprintf(stderr,
                     "unknown application variant %s/%s "
                     "(see tli_run --list)\n",
                     opts.app.c_str(), opts.variant.c_str());
    }
    return v;
}

ExecSetup
makeEngine(const ScenarioOptions &opts, bool progress)
{
    ExecSetup setup;
    if (opts.cacheEnabled())
        setup.cache =
            std::make_unique<exec::ResultCache>(opts.cacheDir);
    exec::EngineConfig config;
    config.jobs = opts.jobs;
    config.cache = setup.cache.get();
    config.progress = progress;
    setup.engine = std::make_unique<exec::Engine>(config);
    return setup;
}

void
ScenarioOptions::usage(std::FILE *os)
{
    std::fprintf(
        os,
        "  --app=NAME             application (default water)\n"
        "  --variant=NAME         unopt | opt (default opt)\n"
        "  --clusters=N           clusters (default 4)\n"
        "  --procs=N              processors per cluster (default 8)\n"
        "  --wan-bw=MBPS          wide-area MByte/s (default 6.0;\n"
        "                         alias --bw=)\n"
        "  --wan-lat=MS           wide-area one-way ms (default 0.5;\n"
        "                         alias --lat=)\n"
        "  --wan-jitter=F         latency variability in [0,1]\n"
        "                         (alias --jitter=)\n"
        "  --wan-loss=F           per-message WAN drop probability\n"
        "                         in [0,1); enables reliable delivery\n"
        "  --wan-outage-start=S   first WAN outage begins at S sim-s\n"
        "  --wan-outage-duration=S  length of each outage window\n"
        "  --wan-outage-period=S  repeat outages every S sim-s\n"
        "                         (0 = a single window)\n"
        "  --wan-outage-queue     queue at the gateway during outages\n"
        "                         instead of dropping\n"
        "  --wan-topology=SHAPE   fully-connected | star | ring |\n"
        "                         torus | mesh (torus/mesh also take\n"
        "                         a spec form, e.g. torus-4x4x2)\n"
        "  --wan-dims=AxBx...     per-dimension extents for torus or\n"
        "                         mesh; product must equal clusters\n"
        "  --collectives=SPEC     collective policy: a family head\n"
        "                         (flat | magpie) plus op=variant\n"
        "                         overrides, e.g.\n"
        "                         magpie,bcast=seg:16k (default flat)\n"
        "  --tuning-table=FILE    dispatch collectives from a tuned\n"
        "                         decision table (tli_tune output);\n"
        "                         overrides --collectives\n"
        "  --scale=F              workload scale (default 1.0)\n"
        "  --seed=N               workload seed (default 42)\n"
        "  --all-myrinet          every link at Myrinet speed\n"
        "  --trace=FILE           write Chrome trace-event JSON\n"
        "  --json=FILE            write a machine-readable report\n"
        "  --jobs=N               worker threads for batches\n"
        "                         (default 0 = all hardware cores)\n"
        "  --cache-dir=DIR        content-addressed result cache;\n"
        "                         hits skip the simulation entirely\n"
        "  --no-cache             ignore --cache-dir for this run\n");
}

} // namespace tli::tools
