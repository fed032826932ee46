#include "core/report_format.hh"

#include <array>
#include <iomanip>
#include <set>
#include <sstream>

#include "core/fingerprint.hh"
#include "core/governor.hh"
#include "ir/printer.hh"
#include "sim/costmodel.hh"
#include "support/log.hh"
#include "telemetry/json.hh"

namespace txrace::core {

namespace {

std::string
describeInstr(const ir::Program &prog, ir::InstrId id)
{
    const ir::Instruction &ins = prog.instr(id);
    std::ostringstream ss;
    ss << "#" << id << " " << ir::formatInstr(ins) << " (in @"
       << prog.function(prog.funcOf(id)).name << ")";
    return ss.str();
}

} // namespace

std::string
formatRace(const ir::Program &prog, const detector::Race &race)
{
    std::ostringstream ss;
    ss << "WARNING: data race (" << detector::raceKindName(race.kind)
       << ", first seen at address 0x" << std::hex << race.addr
       << std::dec << ", " << race.hits << " dynamic occurrence"
       << (race.hits == 1 ? "" : "s") << ")\n";
    ss << "  between " << describeInstr(prog, race.first) << "\n";
    if (race.second == race.first)
        ss << "  and itself on another thread\n";
    else
        ss << "  and     " << describeInstr(prog, race.second) << "\n";
    return ss.str();
}

void
printRaceReport(const ir::Program &prog, const RunResult &result,
                std::ostream &os, const RunIdentity *identity,
                uint64_t configDigest)
{
    os << runModeName(result.mode) << ": " << result.races.count()
       << " distinct data race(s), total cost " << result.totalCost
       << " units\n";
    for (const auto &[sig, race] : fingerprintedRaces(prog,
                                                      result.races)) {
        os << formatRace(prog, race);
        os << "  fingerprint 0x" << std::hex << std::setw(16)
           << std::setfill('0') << sig.hash << std::dec
           << std::setfill(' ') << "\n";
        if (identity)
            os << "  reproduce: " << reproCommand(*identity)
               << "  # config 0x" << std::hex << configDigest
               << std::dec << "\n";
    }
}

namespace {

/** One flight event on one compact line. */
void
printFlightEvent(std::ostream &os, const telemetry::FrEvent &e)
{
    using telemetry::FrKind;
    os << "[" << e.step << "] " << telemetry::frKindName(e.kind());
    if (e.site() != ir::kNoInstr)
        os << " #" << e.site();
    switch (e.kind()) {
      case FrKind::Access:
        os << " g=0x" << std::hex << e.arg << std::dec
           << (e.isWrite() ? " W" : " R");
        break;
      case FrKind::TxAbort:
        os << " ("
           << telemetry::frAbortName(
                  static_cast<telemetry::FrAbort>(e.arg))
           << ")";
        break;
      case FrKind::Budget:
        os << " ("
           << telemetry::frBudgetName(
                  static_cast<telemetry::FrBudget>(e.arg))
           << ")";
        break;
      case FrKind::SlowEnter:
        os << " (" << sim::bucketName(static_cast<sim::Bucket>(e.arg))
           << ")";
        break;
      case FrKind::Gov:
        os << " level=" << e.arg;
        break;
      case FrKind::TxCommit:
        os << " cost=" << e.arg;
        break;
      case FrKind::WindowReplay:
        os << " entries=" << e.arg;
        break;
      default:
        break;
    }
}

} // namespace

void
printForensics(const ir::Program &prog, const RunResult &result,
               std::ostream &os)
{
    const auto &caps = result.telemetry.forensics;
    if (caps.empty()) {
        os << "forensics: no captures (flight recorder disabled, or "
              "no race/run-error triggered)\n";
        return;
    }
    os << "=== forensics (txrace-forensics-v1): " << caps.size()
       << " capture(s) ===\n";
    size_t n = 0;
    for (const auto &cap : caps) {
        os << "capture " << ++n << ": " << cap.trigger;
        if (!cap.kind.empty())
            os << " (" << cap.kind << ")";
        os << " at step " << cap.step;
        if (cap.siteA != ir::kNoInstr)
            os << ", granule 0x" << std::hex << cap.granule
               << std::dec;
        os << "\n";
        if (cap.siteA != ir::kNoInstr) {
            os << "  racing sites:\n";
            os << "    A: " << describeInstr(prog, cap.siteA) << "\n";
            os << "    B: " << describeInstr(prog, cap.siteB) << "\n";
        }
        if (!cap.lastWriters.empty()) {
            os << "  last-writer chain on granule 0x" << std::hex
               << cap.granule << std::dec << ":\n";
            for (const auto &lw : cap.lastWriters)
                os << "    [step " << lw.step << "] t" << lw.tid
                   << " wrote via " << describeInstr(prog, lw.site)
                   << "\n";
        }
        for (const auto &ft : cap.threads) {
            os << "  thread t" << ft.tid << ": gov level "
               << ft.govLevel << ", sampling shift " << ft.siteShift
               << ", window " << ft.window.size() << " event(s), read "
               << ft.readGranules.size() << " / wrote "
               << ft.writeGranules.size() << " granule(s)\n";
            // The newest events are the causally interesting ones;
            // the full window is in the JSON export.
            constexpr size_t kShow = 12;
            size_t start = ft.window.size() > kShow
                ? ft.window.size() - kShow
                : 0;
            for (size_t i = start; i < ft.window.size(); ++i) {
                os << "    ";
                printFlightEvent(os, ft.window[i]);
                os << "\n";
            }
        }
    }
}

namespace {

using telemetry::FrEntry;

/** The text-view line of one timeline entry ("kind" or "kind:
 *  detail"); empty when this view does not show the entry. */
std::string
textEvent(const FrEntry &entry, const fault::FaultPlan &faults)
{
    using namespace telemetry;
    const FrEvent &e = entry.ev;
    const uint8_t f = e.flags();
    const auto arg = static_cast<unsigned long long>(e.arg);
    switch (e.kind()) {
      case FrKind::TxBegin:
        if (f == FrBegin::Region)
            return "xbegin";
        if (f == FrBegin::Backoff)
            return "gov-backoff: retrying after unknown abort";
        return "";
      case FrKind::TxCommit:
        return f == FrCommit::LoopCut
            ? "loop-cut: segment committed mid-loop"
            : "commit";
      case FrKind::TxAbort:
        if (static_cast<FrAbort>(e.arg) == FrAbort::Interrupt)
            return "interrupt: unknown abort (preemption)";
        if (static_cast<FrAbort>(e.arg) == FrAbort::Conflict)
            return "conflict-abort: will publish TxFail";
        return "";
      case FrKind::SlowEnter:
        if (f == FrSlow::TxFail)
            return "slow-enter: artificially aborted by TxFail";
        if (f == FrSlow::Capacity)
            return "capacity-abort: falling back to the slow path alone";
        return "";
      case FrKind::SlowExit:
        return "slow-exit: region finished; back to fast path";
      case FrKind::Gov:
        return e.arg >= FallbackGovernor::kSampling
            ? "slow-enter: governor: sampling mode"
            : "slow-enter: governor: region demoted";
      case FrKind::Budget:
        return static_cast<FrBudget>(e.arg) == FrBudget::RegionGated
            ? "budget-gate: region admitted uninstrumented"
            : "";
      case FrKind::WindowReplay:
        return strprintf("window-replay: %llu entries replayed", arg);
      case FrKind::TxFailWrite:
        return "txfail-write: aborting all in-flight transactions";
      case FrKind::Control: {
        static constexpr const char *kDemoteWhy[] = {
            "livelock", "abort rate", "slow-path cost"};
        switch (f) {
          case FrControl::GovProbe:
            return strprintf("gov-probe: probing level %llu", arg);
          case FrControl::GovStallProbe:
            return "gov-probe: stalled slow path, probing up";
          case FrControl::GovLivelock:
            return "gov-livelock: K consecutive conflict aborts";
          case FrControl::BudgetCut:
          case FrControl::BudgetProbe:
            return strprintf("%s: site %u to 1/%llu",
                             f == FrControl::BudgetProbe ? "budget-probe"
                                                         : "budget-cut",
                             e.site(), 1ULL << e.arg);
          default:
            return strprintf("gov-demote: to level %llu (%s)", arg,
                             kDemoteWhy[f]);
        }
      }
      case FrKind::RunEdge: {
        if (f == FrRunEdge::Deadlock)
            return strprintf("deadlock: %llu live threads blocked", arg);
        if (f == FrRunEdge::Truncated)
            return "truncated: maxSteps runaway guard tripped";
        if (f == FrRunEdge::StopRequest)
            return std::string("stop-request: ") +
                   sim::runErrorKindName(
                       static_cast<sim::RunError::Kind>(e.arg));
        if (f == FrRunEdge::ThreadExit)
            return "";
        const fault::FaultEpisode &ep = faults.episodes.at(e.arg);
        return strprintf("%s: %s x%.2g +%.2g param=%llu",
                         f == FrRunEdge::FaultBegin ? "fault-begin"
                                                    : "fault-end",
                         fault::faultKindName(ep.kind), ep.magnitude,
                         ep.addProb,
                         static_cast<unsigned long long>(ep.param));
      }
      case FrKind::Access:
      case FrKind::Sync:
        return "";
    }
    return "";
}

/** One Chrome trace event; a complete span when span is set. */
struct ChromeEvent
{
    uint64_t ts = 0;
    uint64_t dur = 0;
    Tid tid = 0;
    bool span = false;
    const char *name = "";
    const char *category = "";
    const char *detail = nullptr;  ///< args.detail; nullptr = none
};

/** Replays the timeline's span state machine: one open transaction
 *  and one open slow-path span per thread, each emitted at its close. */
class SpanReplay
{
  public:
    enum Span { Tx = 0, Slow = 1 };

    /** Open a span; an already-open span of the same kind is closed
     *  first (zero-length spans are kept: they mark immediate
     *  aborts). */
    void
    begin(Tid t, Span k, uint64_t ts, const char *name,
          const char *category)
    {
        Open &s = slot(t, k);
        if (s.open)
            end(t, k, ts, nullptr);
        s = Open{true, ts, name, category};
    }

    /** Close thread @p t's open span of kind @p k, if any. */
    void
    end(Tid t, Span k, uint64_t ts, const char *outcome)
    {
        Open &s = slot(t, k);
        if (!s.open)
            return;
        s.open = false;
        events.push_back(ChromeEvent{
            s.start, ts >= s.start ? ts - s.start : 0, t, true, s.name,
            s.category, outcome});
    }

    void
    instant(Tid t, uint64_t ts, const char *name, const char *category,
            const char *detail = nullptr)
    {
        events.push_back(
            ChromeEvent{ts, 0, t, false, name, category, detail});
    }

    /** Close every still-open span at @p ts (end of run). */
    void
    closeAll(uint64_t ts)
    {
        for (Tid t = 0; t < open_.size(); ++t) {
            end(t, Tx, ts, "run-end");
            end(t, Slow, ts, "run-end");
        }
    }

    std::vector<ChromeEvent> events;

  private:
    struct Open
    {
        bool open = false;
        uint64_t start = 0;
        const char *name = "";
        const char *category = "";
    };

    Open &
    slot(Tid t, Span k)
    {
        if (t >= open_.size())
            open_.resize(t + 1);
        return open_[t][k];
    }

    std::vector<std::array<Open, 2>> open_;
};

/** Span name of a slow-path episode, indexed by FrSlow. */
constexpr const char *kSlowSpanName[] = {
    "slow:small-region", "slow:governor",  "slow:hwlimit",
    "slow:txfail",       "slow:conflict",  "slow:capacity",
    "slow:interrupt",    "slow:retry-exhausted"};

/** Feed one timeline entry to the Chrome span replay. */
void
replayChrome(const FrEntry &entry, const fault::FaultPlan &faults,
             SpanReplay &r)
{
    using namespace telemetry;
    const FrEvent &e = entry.ev;
    const uint8_t f = e.flags();
    const Tid t = entry.tid;
    const uint64_t ts = entry.step;
    switch (e.kind()) {
      case FrKind::TxBegin:
        r.begin(t, SpanReplay::Tx, ts, "tx", "tx");
        break;
      case FrKind::TxCommit:
        if (f == FrCommit::LoopCut) {
            r.end(t, SpanReplay::Tx, ts, "loop-cut");
            r.instant(t, ts, "loop-cut", "tx");
        } else {
            r.end(t, SpanReplay::Tx, ts, "commit");
        }
        break;
      case FrKind::TxAbort: {
        // Span outcome and abort instant, indexed by FrAbort (a
        // hardware-limit refusal never opened a span).
        static constexpr const char *kOutcome[] = {
            "conflict", "txfail", "capacity", "interrupt", "retry",
            nullptr};
        static constexpr const char *kInstant[] = {
            "conflict-abort", nullptr, "capacity-abort",
            "interrupt-abort", nullptr, nullptr};
        if (kOutcome[e.arg] != nullptr)
            r.end(t, SpanReplay::Tx, ts, kOutcome[e.arg]);
        if (kInstant[e.arg] != nullptr)
            r.instant(t, ts, kInstant[e.arg], "abort");
        break;
      }
      case FrKind::SlowEnter:
        r.begin(t, SpanReplay::Slow, ts, kSlowSpanName[f], "slow");
        break;
      case FrKind::SlowExit:
        r.end(t, SpanReplay::Slow, ts, "region-end");
        break;
      case FrKind::TxFailWrite:
        r.instant(t, ts, "txfail-write", "txfail");
        break;
      case FrKind::RunEdge:
        if (f == FrRunEdge::FaultBegin || f == FrRunEdge::FaultEnd) {
            r.instant(t, ts,
                      f == FrRunEdge::FaultBegin ? "fault-begin"
                                                 : "fault-end",
                      "fault",
                      fault::faultKindName(faults.episodes.at(e.arg).kind));
        } else if (f == FrRunEdge::ThreadExit) {
            if (e.arg & FrOpen::Tx)
                r.end(t, SpanReplay::Tx, ts, "thread-exit");
            if (e.arg & FrOpen::Slow)
                r.end(t, SpanReplay::Slow, ts, "thread-exit");
        }
        break;
      default:
        break;
    }
}

} // namespace

void
printTimeline(const telemetry::FlightRecorder &rec,
              const fault::FaultPlan &faults, std::ostream &os,
              size_t limit)
{
    size_t shown = 0;
    size_t total = 0;
    for (const FrEntry &entry : rec.timeline()) {
        std::string line = textEvent(entry, faults);
        if (line.empty())
            continue;
        ++total;
        if (limit != 0 && shown >= limit)
            continue;
        os << "[" << entry.step << "] t" << entry.tid << " " << line
           << "\n";
        ++shown;
    }
    if (shown < total)
        os << "... (" << total - shown << " more)\n";
    if (rec.dropped() > 0) {
        const FrEntry &first = rec.firstDropped();
        os << "[" << first.step << "] t" << first.tid
           << " truncated: event cap reached, " << rec.dropped()
           << " event(s) dropped\n";
    }
}

uint64_t
writeChromeTrace(const telemetry::FlightRecorder &rec,
                 const fault::FaultPlan &faults, uint64_t final_step,
                 std::ostream &os)
{
    SpanReplay replay;
    for (const FrEntry &entry : rec.timeline())
        replayChrome(entry, faults, replay);
    replay.closeAll(final_step);

    telemetry::JsonWriter w(os, /*pretty=*/false);
    w.beginArray();
    // Thread-name metadata so the viewer labels the tracks.
    std::set<Tid> tids;
    for (const ChromeEvent &ev : replay.events)
        tids.insert(ev.tid);
    for (Tid t : tids) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", uint64_t{1});
        w.field("tid", uint64_t{t});
        w.key("args");
        w.beginObject();
        w.field("name", "thread " + std::to_string(t));
        w.endObject();
        w.endObject();
    }
    for (const ChromeEvent &ev : replay.events) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("cat", ev.category);
        w.field("ph", ev.span ? "X" : "i");
        w.field("pid", uint64_t{1});
        w.field("tid", uint64_t{ev.tid});
        w.field("ts", ev.ts);
        if (ev.span)
            w.field("dur", ev.dur);
        else
            w.field("s", "t");  // instant scope: thread
        if (ev.detail != nullptr) {
            w.key("args");
            w.beginObject();
            w.field("detail", ev.detail);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    os << "\n";
    return replay.events.size();
}

} // namespace txrace::core
