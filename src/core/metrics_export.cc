#include "core/metrics_export.hh"

#include <sstream>

#include "core/fingerprint.hh"
#include "ir/printer.hh"
#include "sim/costmodel.hh"
#include "telemetry/json.hh"

namespace txrace::core {

namespace {

using telemetry::JsonWriter;
using telemetry::LogHistogram;
using telemetry::MetricKind;
using telemetry::Phase;

std::string
siteDescription(const ir::Program *prog, uint32_t site)
{
    if (!prog)
        return "";
    const ir::Instruction &ins = prog->instr(site);
    std::ostringstream ss;
    ss << ir::formatInstr(ins) << " (in @"
       << prog->function(prog->funcOf(site)).name << ")";
    return ss.str();
}

void
writeHistogram(JsonWriter &w, const LogHistogram &h)
{
    w.beginObject();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("max", h.max());
    w.field("mean", h.mean());
    w.key("buckets");
    w.beginArray();
    for (size_t i = 0; i < LogHistogram::kNumBuckets; ++i) {
        if (h.bucketCount(i) == 0)
            continue;
        w.beginObject();
        w.field("lo", LogHistogram::bucketLo(i));
        w.field("hi", LogHistogram::bucketHi(i));
        w.field("count", h.bucketCount(i));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writePhases(JsonWriter &w, const telemetry::PhaseProfiler &phases)
{
    w.beginObject();
    w.field("total_steps", phases.total());
    for (size_t p = 0; p < telemetry::kNumPhases; ++p)
        w.field(telemetry::phaseName(static_cast<Phase>(p)),
                phases.count(static_cast<Phase>(p)));
    w.key("per_thread");
    w.beginArray();
    const auto &per = phases.perThread();
    for (size_t t = 0; t < per.size(); ++t) {
        w.beginObject();
        w.field("tid", static_cast<uint64_t>(t));
        for (size_t p = 0; p < telemetry::kNumPhases; ++p)
            w.field(telemetry::phaseName(static_cast<Phase>(p)),
                    per[t][p]);
        w.endObject();
    }
    w.endArray();
    // The cost dimension of the same partition (step counts above,
    // virtual-time units here), nested so the step keys — which CI's
    // partition assertion sums — stay untouched.
    w.key("cost");
    w.beginObject();
    w.field("total", phases.totalCost());
    for (size_t p = 0; p < telemetry::kNumPhases; ++p)
        w.field(telemetry::phaseName(static_cast<Phase>(p)),
                phases.costOf(static_cast<Phase>(p)));
    w.endObject();
    w.endObject();
}

void
writeMonitor(JsonWriter &w, const BudgetReport &b)
{
    w.beginObject();
    w.field("budget_pct", b.budgetPct);
    w.field("window_base", b.windowBase);
    w.field("gated_regions", b.gatedRegions);
    w.field("gated_checks", b.gatedChecks);
    w.field("sampled_skips", b.sampledSkips);
    w.field("site_cuts", b.siteCuts);
    w.field("site_probes", b.siteProbes);
    w.key("windows");
    w.beginArray();
    for (const BudgetWindow &win : b.windows) {
        w.beginObject();
        w.field("base", win.base);
        w.field("overhead", win.overhead);
        w.field("hard_over", win.hardOver);
        w.field("refused", win.refused);
        w.endObject();
    }
    w.endArray();
    w.key("site_rates");
    w.beginArray();
    for (const auto &[site, shift] : b.siteShifts) {
        w.beginObject();
        w.field("instr", static_cast<uint64_t>(site));
        w.field("shift", static_cast<uint64_t>(shift));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeConflicts(JsonWriter &w, const ir::Program *prog,
               const telemetry::ConflictMap &conflicts, size_t top_n)
{
    w.beginObject();
    w.field("total", conflicts.total());
    w.field("distinct_lines",
            static_cast<uint64_t>(conflicts.lineCount()));
    w.key("top_lines");
    w.beginArray();
    for (const auto &hot : conflicts.topN(top_n)) {
        w.beginObject();
        w.field("line", hot.line);
        w.field("conflicts", hot.conflicts);
        w.field("distinct_granules", hot.distinctGranules);
        w.field("false_sharing_candidate", hot.falseSharingCandidate);
        w.key("sites");
        w.beginArray();
        for (const auto &[site, count] : hot.sites) {
            w.beginObject();
            w.field("instr", static_cast<uint64_t>(site));
            w.field("count", count);
            if (prog)
                w.field("desc", siteDescription(prog, site));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** One flight event inside a forensics thread window. */
void
writeFlightEvent(JsonWriter &w, const telemetry::FrEvent &e)
{
    using telemetry::FrKind;
    w.beginObject();
    w.field("step", static_cast<uint64_t>(e.step));
    w.field("kind", telemetry::frKindName(e.kind()));
    if (e.site() != ir::kNoInstr)
        w.field("site", static_cast<uint64_t>(e.site()));
    switch (e.kind()) {
      case FrKind::Access:
        w.field("granule", e.arg);
        w.field("write", e.isWrite());
        break;
      case FrKind::TxAbort:
        w.field("reason", telemetry::frAbortName(
                              static_cast<telemetry::FrAbort>(e.arg)));
        break;
      case FrKind::Budget:
        w.field("detail", telemetry::frBudgetName(
                              static_cast<telemetry::FrBudget>(e.arg)));
        break;
      case FrKind::SlowEnter:
        w.field("reason",
                sim::bucketName(static_cast<sim::Bucket>(e.arg)));
        break;
      case FrKind::Gov:
        w.field("level", e.arg);
        break;
      case FrKind::TxCommit:
        w.field("base_cost", e.arg);
        break;
      case FrKind::WindowReplay:
        w.field("entries", e.arg);
        break;
      default:
        break;
    }
    w.endObject();
}

/** The txrace-forensics-v1 block: every capture with its drained
 *  windows, footprints, and last-writer chain. */
void
writeForensics(JsonWriter &w, const ir::Program *prog,
               const std::vector<telemetry::ForensicsCapture> &caps)
{
    w.beginObject();
    w.field("schema", "txrace-forensics-v1");
    w.key("captures");
    w.beginArray();
    for (const auto &cap : caps) {
        w.beginObject();
        w.field("trigger", cap.trigger);
        w.field("step", cap.step);
        if (cap.siteA != ir::kNoInstr) {
            w.field("kind", cap.kind);
            w.field("granule", cap.granule);
            w.field("site_a", static_cast<uint64_t>(cap.siteA));
            w.field("site_b", static_cast<uint64_t>(cap.siteB));
            if (prog) {
                w.field("site_a_desc",
                        siteDescription(prog, cap.siteA));
                w.field("site_b_desc",
                        siteDescription(prog, cap.siteB));
            }
        }
        w.key("last_writers");
        w.beginArray();
        for (const auto &lw : cap.lastWriters) {
            w.beginObject();
            w.field("step", lw.step);
            w.field("tid", static_cast<uint64_t>(lw.tid));
            w.field("site", static_cast<uint64_t>(lw.site));
            if (prog)
                w.field("desc", siteDescription(prog, lw.site));
            w.endObject();
        }
        w.endArray();
        w.key("threads");
        w.beginArray();
        for (const auto &ft : cap.threads) {
            w.beginObject();
            w.field("tid", static_cast<uint64_t>(ft.tid));
            w.field("gov_level", ft.govLevel);
            w.field("site_shift", ft.siteShift);
            w.key("read_granules");
            w.beginArray();
            for (uint64_t g : ft.readGranules)
                w.value(g);
            w.endArray();
            w.key("write_granules");
            w.beginArray();
            for (uint64_t g : ft.writeGranules)
                w.value(g);
            w.endArray();
            w.key("window");
            w.beginArray();
            for (const auto &e : ft.window)
                writeFlightEvent(w, e);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

void
writeMetricsJson(std::ostream &os, const RunIdentity &identity,
                 bool traceText, const ir::Program *prog,
                 const RunResult &result)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "txrace-metrics-v1");

    w.key("run");
    w.beginObject();
    w.field("app", identity.name);
    w.field("mode", cliModeName(identity.mode));
    w.field("seed", identity.seed);
    w.field("workers", static_cast<uint64_t>(identity.workers));
    w.field("scale", identity.scale);
    w.field("total_cost", result.totalCost);
    w.field("error", sim::runErrorKindName(result.error.kind));
    w.field("steps", result.error.stepsExecuted);
    w.endObject();

    // Virtual-time cost attribution (the Figure 7 overhead breakdown).
    w.key("cost_buckets");
    w.beginObject();
    for (size_t b = 0; b < sim::kNumBuckets; ++b)
        w.field(sim::bucketName(static_cast<sim::Bucket>(b)),
                result.buckets[b]);
    w.endObject();

    // The run's counter snapshot: machine + HTM + detector + policy,
    // exactly the names `--stats` prints (StatSet iterates its map in
    // name order — deterministic).
    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : result.stats.all())
        w.field(name, value);
    w.endObject();

    // Histograms live only in the typed registry (not exported into
    // the StatSet); emitted in registration-id order.
    w.key("histograms");
    w.beginObject();
    const auto &reg = result.telemetry.registry;
    for (telemetry::MetricId id = 0; id < reg.size(); ++id) {
        const auto &info = reg.metrics()[id];
        if (info.kind != MetricKind::Histogram)
            continue;
        w.key(info.name);
        writeHistogram(w, reg.hist(id));
    }
    w.endObject();

    w.key("phases");
    writePhases(w, result.telemetry.phases);

    // Abort causes as a flat object (mirrors the htm.aborts.* and
    // tx.abort.* counters for consumers that only want this block).
    w.key("abort_causes");
    w.beginObject();
    for (const auto &[name, value] : result.stats.all()) {
        if (name.rfind("tx.abort.", 0) == 0 ||
            name.rfind("htm.aborts.", 0) == 0)
            w.field(name, value);
    }
    w.endObject();

    w.key("conflicts");
    writeConflicts(w, prog, result.telemetry.conflicts, 10);

    // Timeline accounting: stored vs offered (high-water) is the datum
    // the stream's cap is sized from.
    const telemetry::FlightRecorder &flight = result.telemetry.flight;
    const uint64_t stored = flight.timeline().size();
    w.key("events");
    w.beginObject();
    w.field("enabled", traceText);
    w.field("capacity",
            static_cast<uint64_t>(telemetry::FlightRecorder::kTimelineCap));
    w.field("stored", stored);
    w.field("dropped", flight.dropped());
    w.field("high_water", stored + flight.dropped());
    w.endObject();

    // Forensics captures (flight-recorder drains at race detections
    // and abnormal run ends). Absent when nothing was captured, so
    // recorder-off runs emit a byte-identical document.
    if (!result.telemetry.forensics.empty()) {
        w.key("forensics");
        writeForensics(w, prog, result.telemetry.forensics);
    }

    // Monitor-mode budget ledger: every complete window's overhead
    // against the budget, plus the per-site sampling state. Absent
    // entirely outside monitor mode, so existing consumers see a
    // byte-identical document.
    if (result.budget.enabled) {
        w.key("monitor");
        writeMonitor(w, result.budget);
    }

    // Race list in fingerprint order: byte-stable across runs and
    // directly joinable with campaign findings (same fingerprints).
    w.key("races");
    w.beginObject();
    w.field("count", static_cast<uint64_t>(result.races.count()));
    w.key("list");
    w.beginArray();
    if (prog) {
        for (const auto &[sig, race] :
             fingerprintedRaces(*prog, result.races)) {
            std::ostringstream fp;
            fp << "0x" << std::hex << sig.hash;
            w.beginObject();
            w.field("fingerprint", fp.str());
            w.field("a", sig.a);
            w.field("b", sig.b);
            w.field("hits", race.hits);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();

    w.endObject();
    os << "\n";
}

telemetry::Profile
buildRunProfile(const std::string &app, const RunResult &result)
{
    telemetry::Profile p;
    telemetry::AppProfile &a = p.apps[app];
    a.runs = 1;
    a.txBegins = result.stats.get("tx.begins");
    a.txCommitted = result.stats.get("tx.committed");
    a.slowRegions = result.stats.get("txrace.slow_regions");
    a.windowReplays = result.stats.get("txrace.window.replays");
    if (result.budget.enabled) {
        a.monitorSiteCuts = result.budget.siteCuts;
        a.monitorSiteProbes = result.budget.siteProbes;
        a.monitorGatedChecks = result.budget.gatedChecks;
        a.monitorSampledSkips = result.budget.sampledSkips;
    }
    for (const auto &[site, ss] : result.telemetry.siteStats) {
        telemetry::SiteProfile &sp = a.sites[site];
        sp.conflictAborts = ss.conflictAborts;
        sp.capacityAborts = ss.capacityAborts;
        sp.otherAborts = ss.otherAborts;
        sp.slowChecks = ss.slowChecks;
        sp.slowCost = ss.slowCost;
        sp.windowReplays = ss.windowReplays;
    }
    for (const auto &[site, shift] : result.budget.siteShifts)
        a.sites[site].monitorShiftMax = shift;
    return p;
}

} // namespace txrace::core
