#include "exec/result_cache.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/json.h"
#include "core/run_report.h"
#include "net/fabric.h"
#include "sim/hash.h"
#include "sim/logging.h"

namespace tli::exec {

namespace {

constexpr const char *kSchema = "tli-result-cache-v1";

void
writeLinkStatsArray(core::JsonWriter &w, std::string_view key,
                    const std::vector<net::LinkStats> &v)
{
    w.key(key).beginArray();
    for (const net::LinkStats &s : v)
        core::writeLinkStatsJson(w, s);
    w.endArray();
}

/**
 * Checked reads for load(), one per JSON type, each taking a possibly
 * null find() result. A missing or mistyped value reads as zero or
 * empty and marks the entry bad, so load() reads on and one ok check
 * at the end turns any damage into a miss instead of an assertion.
 */
struct EntryReader
{
    using Kind = core::JsonValue::Kind;

    bool ok = true;

    bool
    check(bool well_formed)
    {
        ok = ok && well_formed;
        return well_formed;
    }

    /** An object or array; an empty value (no members) if absent. */
    const core::JsonValue &
    node(const core::JsonValue *v, Kind kind)
    {
        static const core::JsonValue none;
        return check(v && v->kind() == kind) ? *v : none;
    }

    double
    number(const core::JsonValue *v)
    {
        return check(v && v->kind() == Kind::number) ? v->asDouble() : 0;
    }

    std::int64_t
    integer(const core::JsonValue *v)
    {
        return check(v && v->isInteger()) ? v->asInt() : 0;
    }

    std::uint64_t
    count(const core::JsonValue *v)
    {
        const std::int64_t n = integer(v);
        return check(n >= 0) ? static_cast<std::uint64_t>(n) : 0;
    }

    bool
    flag(const core::JsonValue *v)
    {
        return check(v && v->kind() == Kind::boolean) && v->asBool();
    }

    const std::string &
    text(const core::JsonValue *v)
    {
        static const std::string none;
        return check(v && v->kind() == Kind::string) ? v->asString()
                                                     : none;
    }
};

net::LinkStats
readLinkStats(EntryReader &r, const core::JsonValue *v)
{
    const core::JsonValue &o = r.node(v, EntryReader::Kind::object);
    net::LinkStats s;
    s.messages = r.count(o.find("messages"));
    s.bytes = r.count(o.find("bytes"));
    s.busyTime = r.number(o.find("busy_s"));
    return s;
}

std::vector<net::LinkStats>
readLinkStatsArray(EntryReader &r, const core::JsonValue *v)
{
    std::vector<net::LinkStats> out;
    const core::JsonValue &arr = r.node(v, EntryReader::Kind::array);
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push_back(readLinkStats(r, &arr[i]));
    return out;
}

/**
 * Rebuild a stored WAN shape from its canonical kind name plus the
 * optional wan_dims field (absent for dimensionless shapes and in
 * every pre-torus entry). Unknown names read as the fully connected
 * default, matching the schema's tolerant-read policy.
 */
net::WanShape
shapeFromEntry(EntryReader &r, const core::JsonValue &parent)
{
    net::WanShape shape =
        net::parseWanShape(r.text(parent.find("wan_topology")))
            .value_or(net::WanShape());
    if (const core::JsonValue *d = parent.find("wan_dims")) {
        if (auto dims = net::parseWanDims(r.text(d)))
            shape = net::WanShape(shape.kind(), std::move(*dims));
    }
    return shape;
}

} // namespace

std::string
jobFingerprint(const core::AppVariant &variant,
               const core::Scenario &scenario)
{
    std::uint64_t h = scenario.fingerprint();
    h = sim::fnv1a("|app=", h);
    h = sim::fnv1a(variant.app, h);
    h = sim::fnv1a("|variant=", h);
    h = sim::fnv1a(variant.variant, h);
    h = sim::fnv1a("|salt=", h);
    h = sim::fnv1a(kCacheSalt, h);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        TLI_FATAL("cannot create cache directory ", dir_, ": ",
                  ec.message());
    }
}

std::string
ResultCache::entryPath(const std::string &fingerprint) const
{
    return dir_ + "/" + fingerprint + ".json";
}

std::optional<core::RunResult>
ResultCache::load(const std::string &fingerprint) const
{
    std::ifstream f(entryPath(fingerprint));
    if (!f)
        return std::nullopt;
    std::ostringstream buf;
    buf << f.rdbuf();
    std::optional<core::JsonValue> doc = core::parseJson(buf.str());
    if (!doc)
        return std::nullopt;
    EntryReader r;
    using Kind = EntryReader::Kind;
    if (r.text(doc->find("schema")) != kSchema)
        return std::nullopt;

    const core::JsonValue &res = r.node(doc->find("result"), Kind::object);
    core::RunResult out;
    out.runTime = r.number(res.find("run_time_s"));
    out.checksum = r.number(res.find("checksum"));
    out.verified = r.flag(res.find("verified"));
    const core::JsonValue &compute =
        r.node(res.find("compute_per_rank_s"), Kind::array);
    out.computePerRank.reserve(compute.size());
    for (std::size_t i = 0; i < compute.size(); ++i)
        out.computePerRank.push_back(r.number(&compute[i]));
    const core::JsonValue &dispatch =
        r.node(res.find("collective_dispatch"), Kind::array);
    out.collectiveDispatch.reserve(dispatch.size());
    for (std::size_t i = 0; i < dispatch.size(); ++i)
        out.collectiveDispatch.push_back(r.text(&dispatch[i]));

    const core::JsonValue &t = r.node(doc->find("traffic"), Kind::object);
    net::FabricStats &stats = out.traffic;
    stats.wanShape = shapeFromEntry(r, t);
    stats.clusters = static_cast<int>(r.integer(t.find("clusters")));
    stats.intra = readLinkStats(r, t.find("intra"));
    stats.inter = readLinkStats(r, t.find("inter"));
    stats.wanTransit = r.number(t.find("wan_transit_s"));
    stats.orderedPairs = r.count(t.find("ordered_pairs"));
    stats.orderingBytes = r.count(t.find("ordering_bytes"));
    // Impairment-era fields, read tolerantly: entries written before
    // they existed (necessarily unimpaired runs) stay valid with the
    // counters at zero.
    if (const core::JsonValue *v = t.find("wan_loss_drops"))
        stats.wanLossDrops = r.count(v);
    if (const core::JsonValue *v = t.find("wan_outage_drops"))
        stats.wanOutageDrops = r.count(v);
    if (const core::JsonValue *d = t.find("delivery")) {
        stats.delivery.retransmits = r.count(d->find("retransmits"));
        stats.delivery.duplicates = r.count(d->find("duplicates"));
        stats.delivery.acks = r.count(d->find("acks"));
        stats.delivery.duplicateAcks = r.count(d->find("duplicate_acks"));
    }
    stats.interPerCluster = readLinkStatsArray(r, t.find("per_cluster"));
    stats.nics = readLinkStatsArray(r, t.find("nics"));
    stats.gatewayOut = readLinkStatsArray(r, t.find("gateway_out"));
    stats.gatewayIn = readLinkStatsArray(r, t.find("gateway_in"));
    const core::JsonValue &links = r.node(t.find("wan_links"), Kind::array);
    stats.wanLinks.reserve(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
        net::WanLinkEntry e;
        std::int64_t a = r.integer(links[i].find("a"));
        std::int64_t b = r.integer(links[i].find("b"));
        e.a = a < 0 ? invalidCluster : static_cast<ClusterId>(a);
        e.b = b < 0 ? invalidCluster : static_cast<ClusterId>(b);
        e.kind = net::canonicalWanLinkKind(r.text(links[i].find("kind")));
        e.stats = readLinkStats(r, links[i].find("stats"));
        stats.wanLinks.push_back(e);
    }
    if (!r.ok)
        return std::nullopt;
    return out;
}

void
ResultCache::store(const std::string &fingerprint,
                   const core::ExperimentJob &job,
                   const core::RunResult &result) const
{
    // Unique temp name per thread; rename() is atomic within the
    // directory, so readers only ever see complete files.
    std::ostringstream tmpName;
    tmpName << dir_ << "/." << fingerprint << "."
            << std::this_thread::get_id() << ".tmp";
    const std::string tmp = tmpName.str();
    {
        std::ofstream f(tmp);
        if (!f) {
            TLI_FATAL("cannot write cache entry ", tmp);
        }
        core::JsonWriter w(f, 2, /*fullPrecision=*/true);
        w.beginObject();
        w.field("schema", kSchema);
        w.field("fingerprint", fingerprint);
        w.field("label", job.displayLabel());

        // The app, variant and scenario blocks are informational (the
        // fingerprint is the address); they make entries
        // self-describing, and load() never reads them.
        w.field("app", job.variant.app);
        w.field("variant", job.variant.variant);
        w.key("scenario");
        core::writeScenarioJson(w, job.scenario);

        w.key("result").beginObject();
        w.field("run_time_s", result.runTime);
        w.field("checksum", result.checksum);
        w.field("verified", result.verified);
        w.key("compute_per_rank_s").beginArray();
        for (double c : result.computePerRank)
            w.value(c);
        w.endArray();
        w.key("collective_dispatch").beginArray();
        for (const std::string &d : result.collectiveDispatch)
            w.value(d);
        w.endArray();
        w.endObject();

        const net::FabricStats &t = result.traffic;
        w.key("traffic").beginObject();
        w.field("wan_topology", t.wanShape.name());
        if (!t.wanShape.dims().empty()) {
            w.field("wan_dims",
                    net::wanDimsSpec(t.wanShape.dims()));
        }
        w.field("clusters", t.clusters);
        w.key("intra");
        core::writeLinkStatsJson(w, t.intra);
        w.key("inter");
        core::writeLinkStatsJson(w, t.inter);
        w.field("wan_transit_s", t.wanTransit);
        w.field("ordered_pairs", t.orderedPairs);
        w.field("ordering_bytes", t.orderingBytes);
        w.field("wan_loss_drops", t.wanLossDrops);
        w.field("wan_outage_drops", t.wanOutageDrops);
        w.key("delivery")
            .beginObject()
            .field("retransmits", t.delivery.retransmits)
            .field("duplicates", t.delivery.duplicates)
            .field("acks", t.delivery.acks)
            .field("duplicate_acks", t.delivery.duplicateAcks)
            .endObject();
        writeLinkStatsArray(w, "per_cluster", t.interPerCluster);
        writeLinkStatsArray(w, "nics", t.nics);
        writeLinkStatsArray(w, "gateway_out", t.gatewayOut);
        writeLinkStatsArray(w, "gateway_in", t.gatewayIn);
        w.key("wan_links").beginArray();
        for (const net::WanLinkEntry &e : t.wanLinks) {
            w.beginObject();
            w.field("a", e.a == invalidCluster
                             ? std::int64_t{-1}
                             : static_cast<std::int64_t>(e.a));
            w.field("b", e.b == invalidCluster
                             ? std::int64_t{-1}
                             : static_cast<std::int64_t>(e.b));
            w.field("kind", e.kind);
            w.key("stats");
            core::writeLinkStatsJson(w, e.stats);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        w.endObject();
    }
    std::error_code ec;
    std::filesystem::rename(tmp, entryPath(fingerprint), ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        TLI_FATAL("cannot commit cache entry for ", fingerprint, ": ",
                  ec.message());
    }
}

} // namespace tli::exec
