#include "campaign/progress.hh"

#include "telemetry/json.hh"

namespace txrace::campaign {

void
writeProgressRecord(std::ostream &os, const ProgressRecord &rec)
{
    telemetry::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("schema", "txrace-progress-v1");
    w.field("event", rec.event);
    w.field("round", rec.round);
    w.field("jobs_total", rec.jobsTotal);
    w.field("jobs_done", rec.jobsDone);
    w.field("in_flight", rec.jobsTotal - rec.jobsDone);
    w.field("findings", rec.findings);
    w.field("raw_reports", rec.rawReports);
    w.field("dedup_ratio",
            rec.findings ? double(rec.rawReports) / double(rec.findings)
                         : 1.0);
    w.field("errors", rec.errors);
    w.key("variants");
    w.beginObject();
    for (const auto &[name, runs, raw] : rec.variants) {
        w.key(name);
        w.beginObject();
        w.field("runs", runs);
        w.field("raw_reports", raw);
        w.endObject();
    }
    w.endObject();
    w.key("workers");
    w.beginArray();
    for (size_t i = 0; i < rec.workers.size(); ++i) {
        w.beginObject();
        w.field("worker", uint64_t(i));
        w.field("done", rec.workers[i].first);
        w.field("phase", rec.workers[i].second ? "run" : "idle");
        w.endObject();
    }
    w.endArray();
    if (!rec.service.empty()) {
        w.key("service");
        w.beginObject();
        for (const auto &[name, value] : rec.service)
            w.field(name, value);
        w.endObject();
    }
    w.endObject();
    os << "\n" << std::flush;
}

} // namespace txrace::campaign
