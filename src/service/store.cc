#include "service/store.hh"

#include <tuple>

#include "core/repro.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"

namespace txrace::service {

namespace {

constexpr const char *kSchema = "txrace-findings-v1";

/** The identity fields, as a tuple of references: one list for
 *  comparison and adoption (the reader and writer name each field). */
template <typename Config>
auto
identity(Config &c)
{
    return std::tie(c.masterSeed, c.strategy, c.mode, c.slowpath, c.apps,
                    c.seedsPerApp, c.workers, c.scale, c.calibrate);
}

} // namespace

void
writeCampaignIdentity(telemetry::JsonWriter &w,
                      const campaign::CampaignConfig &cfg)
{
    w.field("master_seed", cfg.masterSeed);
    w.field("strategy", cfg.strategy);
    w.field("mode", core::cliModeName(cfg.mode));
    w.field("slowpath", core::slowPathKindName(cfg.slowpath));
    w.key("apps");
    w.beginArray();
    for (const std::string &app : cfg.apps)
        w.value(app);
    w.endArray();
    w.field("seeds_per_app", cfg.seedsPerApp);
    w.field("workers", uint64_t(cfg.workers));
    w.field("scale", cfg.scale);
    w.field("calibrate", cfg.calibrate);
}

bool
readCampaignIdentity(const telemetry::JsonValue &v,
                     campaign::CampaignConfig &cfg, std::string &error)
{
    if (!v.isObject()) {
        error = "campaign identity is not an object";
        return false;
    }
    const telemetry::JsonValue *seed = v.find("master_seed");
    const telemetry::JsonValue *strategy = v.find("strategy");
    const telemetry::JsonValue *mode = v.find("mode");
    const telemetry::JsonValue *apps = v.find("apps");
    if (!seed || !strategy || !strategy->isString() || !mode ||
        !mode->isString() || !apps || !apps->isArray()) {
        error = "campaign identity: missing "
                "master_seed/strategy/mode/apps";
        return false;
    }
    cfg.masterSeed = seed->asU64();
    cfg.strategy = strategy->str;
    if (!core::cliModeFromName(mode->str, cfg.mode)) {
        error = "campaign identity: unknown mode '" + mode->str + "'";
        return false;
    }
    if (const telemetry::JsonValue *sp = v.find("slowpath")) {
        if (!sp->isString() ||
            !core::slowPathKindFromName(sp->str, cfg.slowpath)) {
            error = "campaign identity: unknown slowpath";
            return false;
        }
    }
    cfg.apps.clear();
    for (const telemetry::JsonValue &app : apps->array) {
        if (!app.isString() || app.str.empty()) {
            error = "campaign identity: bad apps entry";
            return false;
        }
        cfg.apps.push_back(app.str);
    }
    if (!telemetry::readUnsigned(v, "seeds_per_app", cfg.seedsPerApp,
                                 error) ||
        !telemetry::readUnsigned(v, "workers", cfg.workers, error) ||
        !telemetry::readUnsigned(v, "scale", cfg.scale, error)) {
        error = "campaign identity: " + error;
        return false;
    }
    cfg.calibrate = telemetry::getBool(v, "calibrate");
    return true;
}

bool
sameCampaignIdentity(const campaign::CampaignConfig &a,
                     const campaign::CampaignConfig &b)
{
    return identity(a) == identity(b);
}

void
adoptCampaignIdentity(campaign::CampaignConfig &cfg,
                      const campaign::CampaignConfig &from)
{
    identity(cfg) = identity(from);
}

void
FindingsStore::write(std::ostream &os) const
{
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.field("schema", kSchema);
    w.key("campaign");
    w.beginObject();
    writeCampaignIdentity(w, campaign);
    w.endObject();
    w.key("aggregate");
    aggregate.writeState(w);
    w.endObject();
    os << "\n";
}

bool
FindingsStore::parse(const std::string &text, FindingsStore &out,
                     std::string &error)
{
    out = FindingsStore{};
    telemetry::JsonValue doc;
    if (!telemetry::parseJson(text, doc, error))
        return false;
    if (!telemetry::checkSchema(doc, kSchema, error))
        return false;
    const telemetry::JsonValue *id = doc.find("campaign");
    if (!id || !readCampaignIdentity(*id, out.campaign, error)) {
        if (error.empty())
            error = "missing campaign identity";
        return false;
    }
    const telemetry::JsonValue *agg = doc.find("aggregate");
    if (!agg) {
        error = "missing aggregate object";
        return false;
    }
    return out.aggregate.loadState(*agg, error);
}

bool
FindingsStore::merge(const FindingsStore &o, std::string &error)
{
    if (!sameCampaignIdentity(campaign, o.campaign)) {
        error = "refusing to merge findings stores of different "
                "campaigns (strategy '" +
                campaign.strategy + "' seed " +
                std::to_string(campaign.masterSeed) + " vs '" +
                o.campaign.strategy + "' seed " +
                std::to_string(o.campaign.masterSeed) + ")";
        return false;
    }
    aggregate.merge(o.aggregate);
    return true;
}

} // namespace txrace::service
