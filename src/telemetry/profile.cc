#include "profile.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ostream>

#include "json.hh"
#include "jsonparse.hh"

namespace txrace::telemetry {

namespace {

/** Current (and only) schema identifier. */
constexpr const char *kSchema = "txrace-profile-v1";

} // namespace

void
SiteProfile::merge(const SiteProfile &o)
{
    conflictAborts += o.conflictAborts;
    capacityAborts += o.capacityAborts;
    otherAborts += o.otherAborts;
    slowChecks += o.slowChecks;
    slowCost += o.slowCost;
    monitorShiftMax = std::max(monitorShiftMax, o.monitorShiftMax);
    windowReplays += o.windowReplays;
}

bool
SiteProfile::empty() const
{
    return !conflictAborts && !capacityAborts && !otherAborts &&
           !slowChecks && !slowCost && !monitorShiftMax &&
           !windowReplays;
}

void
AppProfile::merge(const AppProfile &o)
{
    runs += o.runs;
    txBegins += o.txBegins;
    txCommitted += o.txCommitted;
    slowRegions += o.slowRegions;
    monitorSiteCuts += o.monitorSiteCuts;
    monitorSiteProbes += o.monitorSiteProbes;
    monitorGatedChecks += o.monitorGatedChecks;
    monitorSampledSkips += o.monitorSampledSkips;
    windowReplays += o.windowReplays;
    for (const auto &[site, sp] : o.sites)
        sites[site].merge(sp);
}

void
Profile::merge(const Profile &o)
{
    for (const auto &[name, app] : o.apps)
        apps[name].merge(app);
}

void
Profile::write(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kSchema);
    writeBody(w);
    w.endObject();
    os << "\n";
}

void
Profile::writeBody(JsonWriter &w) const
{
    w.key("apps");
    w.beginObject();
    for (const auto &[name, app] : apps) {
        w.key(name);
        w.beginObject();
        w.field("runs", app.runs);
        w.field("tx_begins", app.txBegins);
        w.field("tx_committed", app.txCommitted);
        w.field("slow_regions", app.slowRegions);
        w.field("monitor_site_cuts", app.monitorSiteCuts);
        w.field("monitor_site_probes", app.monitorSiteProbes);
        w.field("monitor_gated_checks", app.monitorGatedChecks);
        w.field("monitor_sampled_skips", app.monitorSampledSkips);
        w.field("window_replays", app.windowReplays);
        w.key("sites");
        w.beginObject();
        for (const auto &[site, sp] : app.sites) {
            if (sp.empty())
                continue;
            w.key(std::to_string(site));
            w.beginObject();
            w.field("conflict_aborts", sp.conflictAborts);
            w.field("capacity_aborts", sp.capacityAborts);
            w.field("other_aborts", sp.otherAborts);
            w.field("slow_checks", sp.slowChecks);
            w.field("slow_cost", sp.slowCost);
            w.field("monitor_shift_max", sp.monitorShiftMax);
            w.field("window_replays", sp.windowReplays);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
}

bool
Profile::parse(const std::string &text, Profile &out, std::string &error)
{
    out = Profile{};
    JsonValue doc;
    if (!parseJson(text, doc, error))
        return false;
    if (!checkSchema(doc, kSchema, error))
        return false;
    return parseBody(doc, out, error);
}

bool
Profile::parseBody(const JsonValue &body, Profile &out,
                   std::string &error)
{
    out = Profile{};
    if (!body.isObject()) {
        error = "profile body is not an object";
        return false;
    }
    const JsonValue *apps = body.find("apps");
    if (!apps || !apps->isObject()) {
        error = "missing apps object";
        return false;
    }
    for (const auto &[name, appv] : apps->object) {
        if (!appv.isObject()) {
            error = "app entry '" + name + "' is not an object";
            return false;
        }
        AppProfile &app = out.apps[name];
        app.runs = getU64(appv, "runs");
        app.txBegins = getU64(appv, "tx_begins");
        app.txCommitted = getU64(appv, "tx_committed");
        app.slowRegions = getU64(appv, "slow_regions");
        app.monitorSiteCuts = getU64(appv, "monitor_site_cuts");
        app.monitorSiteProbes = getU64(appv, "monitor_site_probes");
        app.monitorGatedChecks = getU64(appv, "monitor_gated_checks");
        app.monitorSampledSkips = getU64(appv, "monitor_sampled_skips");
        app.windowReplays = getU64(appv, "window_replays");
        const JsonValue *sites = appv.find("sites");
        if (!sites)
            continue;
        if (!sites->isObject()) {
            error = "sites of '" + name + "' is not an object";
            return false;
        }
        for (const auto &[sitekey, sitev] : sites->object) {
            if (!sitev.isObject()) {
                error = "site entry '" + sitekey + "' is not an object";
                return false;
            }
            errno = 0;
            char *end = nullptr;
            unsigned long long id =
                std::strtoull(sitekey.c_str(), &end, 10);
            if (errno || !end || *end != '\0' || id > 0xffffffffULL) {
                error = "bad site id '" + sitekey + "'";
                return false;
            }
            SiteProfile &sp = app.sites[static_cast<uint32_t>(id)];
            sp.conflictAborts = getU64(sitev, "conflict_aborts");
            sp.capacityAborts = getU64(sitev, "capacity_aborts");
            sp.otherAborts = getU64(sitev, "other_aborts");
            sp.slowChecks = getU64(sitev, "slow_checks");
            sp.slowCost = getU64(sitev, "slow_cost");
            sp.monitorShiftMax = getU64(sitev, "monitor_shift_max");
            sp.windowReplays = getU64(sitev, "window_replays");
        }
    }
    return true;
}

} // namespace txrace::telemetry
