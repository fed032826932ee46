#include "service/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "service/ingest.hh"
#include "service/store.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"

namespace txrace::service {

namespace {

constexpr const char *kSchema = "txrace-checkpoint-v1";

void
writeSpecFields(telemetry::JsonWriter &w, const campaign::JobSpec &spec)
{
    w.field("id", spec.id);
    w.field("round", uint64_t(spec.round));
    w.field("app", spec.run.name);
    w.field("seed", spec.run.seed);
    w.field("variant", spec.variant);
    w.field("workers", uint64_t(spec.run.workers));
    w.field("scale", spec.run.scale);
    w.field("irq_scale", spec.run.irqScale);
    w.field("governor", spec.run.governor);
}

} // namespace

OutcomeSummary
OutcomeSummary::of(const campaign::JobOutcome &o)
{
    return {o.spec, o.ok, o.abortConflict, uint64_t(o.races.size())};
}

campaign::JobOutcome
OutcomeSummary::toOutcome() const
{
    campaign::JobOutcome o;
    o.spec = spec;
    o.ok = ok;
    o.abortConflict = abortConflict;
    return o;
}

void
Checkpoint::write(std::ostream &os) const
{
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.field("schema", kSchema);
    w.key("campaign");
    w.beginObject();
    writeCampaignIdentity(w, campaign);
    w.endObject();
    w.field("next_id", nextId);
    w.field("rounds_done", roundsDone);
    w.field("jobs_total", jobsTotal);
    w.key("strategy");
    w.beginObject();
    w.field("name", strategyName);
    w.key("state");
    w.beginObject();
    for (const auto &[key, value] : strategyState)
        w.field(key, value);
    w.endObject();
    w.endObject();
    w.key("plan");
    w.beginArray();
    for (const campaign::JobSpec &spec : plan) {
        w.beginObject();
        writeSpecFields(w, spec);
        w.endObject();
    }
    w.endArray();
    w.key("history");
    w.beginArray();
    {
        std::vector<const OutcomeSummary *> sorted;
        sorted.reserve(history.size());
        for (const OutcomeSummary &s : history)
            sorted.push_back(&s);
        std::sort(sorted.begin(), sorted.end(),
                  [](const OutcomeSummary *x, const OutcomeSummary *y) {
                      return x->spec.id < y->spec.id;
                  });
        for (const OutcomeSummary *s : sorted) {
            w.beginObject();
            writeSpecFields(w, s->spec);
            w.field("ok", s->ok);
            w.field("abort_conflict", s->abortConflict);
            w.field("raw_reports", s->rawReports);
            w.endObject();
        }
    }
    w.endArray();
    w.key("spool");
    w.beginObject();
    for (const auto &[file, firstId] : spoolFirstId)
        w.field(file, firstId);
    w.endObject();
    w.key("aggregate");
    aggregate.writeState(w);
    w.endObject();
    os << "\n";
}

bool
Checkpoint::parse(const std::string &text, Checkpoint &out,
                  std::string &error)
{
    out = Checkpoint{};
    telemetry::JsonValue doc;
    if (!telemetry::parseJson(text, doc, error))
        return false;
    if (!telemetry::checkSchema(doc, kSchema, error))
        return false;
    const telemetry::JsonValue *id = doc.find("campaign");
    if (!id || !readCampaignIdentity(*id, out.campaign, error)) {
        if (error.empty())
            error = "checkpoint: missing campaign identity";
        return false;
    }
    out.nextId = getU64(doc, "next_id");
    out.roundsDone = getU64(doc, "rounds_done");
    out.jobsTotal = getU64(doc, "jobs_total");

    const telemetry::JsonValue *strat = doc.find("strategy");
    if (!strat || !strat->isObject()) {
        error = "checkpoint: missing strategy object";
        return false;
    }
    out.strategyName = getStr(*strat, "name");
    if (const telemetry::JsonValue *state = strat->find("state");
        state && state->isObject())
        for (const auto &[key, value] : state->object)
            out.strategyState[key] = value.asU64();

    const telemetry::JsonValue *plan = doc.find("plan");
    if (!plan || !plan->isArray()) {
        error = "checkpoint: missing plan array";
        return false;
    }
    for (const telemetry::JsonValue &entry : plan->array) {
        campaign::JobSpec spec;
        if (!readJobSpec(entry, out.campaign, spec, error))
            return false;
        out.plan.push_back(std::move(spec));
    }

    const telemetry::JsonValue *history = doc.find("history");
    if (!history || !history->isArray()) {
        error = "checkpoint: missing history array";
        return false;
    }
    for (const telemetry::JsonValue &entry : history->array) {
        OutcomeSummary s;
        if (!readJobSpec(entry, out.campaign, s.spec, error))
            return false;
        s.ok = getBool(entry, "ok");
        s.abortConflict = getU64(entry, "abort_conflict");
        s.rawReports = getU64(entry, "raw_reports");
        out.history.push_back(std::move(s));
    }

    if (const telemetry::JsonValue *spool = doc.find("spool");
        spool && spool->isObject())
        for (const auto &[file, firstId] : spool->object)
            out.spoolFirstId[file] = firstId.asU64();

    const telemetry::JsonValue *agg = doc.find("aggregate");
    if (!agg) {
        error = "checkpoint: missing aggregate object";
        return false;
    }
    return out.aggregate.loadState(*agg, error);
}

bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::string &error)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        error = "cannot write " + tmp;
        return false;
    }
    bool ok =
        std::fwrite(content.data(), 1, content.size(), f) ==
            content.size() &&
        std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        error = "short write to " + tmp;
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        error = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace txrace::service
