/**
 * @file
 * The two timeline views, pinned: for a fixed set of runs covering
 * every protocol event (the TxFail sequence, fault edges, governor
 * and budget transitions, the winner replay, deadlock and
 * truncation), the `--trace` text and the `--trace-json` Chrome trace
 * rendered from the event stream must match these FNV-1a hashes and
 * lengths byte for byte. Also the event-log contract: off by default,
 * the Figure-3 order, the print limit, and the cap marker.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/report_format.hh"
#include "fault/fault.hh"
#include "ir/builder.hh"
#include "telemetry/flightrec.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using telemetry::FlightRecorder;
using telemetry::FrKind;

namespace {

ir::Program
conflictingProgram()
{
    ir::ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr racy = b.alloc("racy", 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        for (int i = 0; i < 6; ++i)
            b.load(ir::AddrExpr::absolute(data + 8 * i), "pad");
        b.store(ir::AddrExpr::absolute(racy), "unlocked");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    return b.build();
}

/** The conflicting workers, then main waits on a condition nobody
 *  signals: the run ends in a deadlock after real timeline traffic. */
ir::Program
deadlockingProgram()
{
    ir::ProgramBuilder b;
    ir::Addr data = b.alloc("data", 4096);
    ir::Addr racy = b.alloc("racy", 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(4, [&] {
        for (int i = 0; i < 6; ++i)
            b.load(ir::AddrExpr::absolute(data + 8 * i), "pad");
        b.store(ir::AddrExpr::absolute(racy), "unlocked");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.wait(1);
    b.endFunction();
    return b.build();
}

struct TimelineRun
{
    const char *name;
    ir::Program program;
    core::RunConfig cfg;
};

core::RunConfig
txraceConfig()
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    return cfg;
}

TimelineRun
appRun(const char *name, const char *app, uint32_t workers,
       uint64_t seed)
{
    workloads::WorkloadParams params;
    params.nWorkers = workers;
    params.calibrate = false;
    workloads::AppModel model = workloads::makeApp(app, params);
    core::RunConfig cfg = txraceConfig();
    cfg.machine = model.machine;
    cfg.machine.seed = seed;
    return {name, std::move(model.program), cfg};
}

TimelineRun
monitorRun(const char *name, const char *app, double pct)
{
    TimelineRun run = appRun(name, app, 4, 1);
    run.cfg.governor.enabled = true;
    run.cfg.budget.enabled = true;
    run.cfg.budget.budgetPct = pct;
    return run;
}

/** Every pinned run, in pin-table order. */
std::vector<TimelineRun>
timelineRuns()
{
    std::vector<TimelineRun> runs;

    // The pure TxFail protocol on a conflicting loop: the TxFail
    // sequence with no winner replay in it.
    TimelineRun txfail{"txfail-region", conflictingProgram(),
                       txraceConfig()};
    txfail.cfg.slowpath = core::SlowPathKind::TxFail;
    txfail.cfg.machine.interruptPerStep = 0.0;
    runs.push_back(std::move(txfail));

    // Interrupt storm under the governor: fault edges, gov-*,
    // interrupts and backoff.
    TimelineRun storm = appRun("vips-storm-governor", "vips", 8, 3);
    storm.cfg.machine.faults =
        fault::makeScenario("interrupt-storm", 20'000);
    storm.cfg.governor.enabled = true;
    runs.push_back(std::move(storm));

    // Monitor mode: budget cut / probe, the region gate, and (at a
    // budget vips cannot meet) the stop request.
    runs.push_back(monitorRun("apache-monitor-5", "apache-stream", 5.0));
    // 1.8%: apache-stream's one budget cut and two probes.
    runs.push_back(
        monitorRun("apache-monitor-1.8", "apache-stream", 1.8));
    runs.push_back(monitorRun("x264-monitor-1", "x264", 1.0));
    runs.push_back(monitorRun("vips-monitor-1", "vips", 1.0));

    // Default slow path: the TxFail broadcast catches every winner in
    // flight, so their owed windows are dropped and no window-replay
    // shows (vips-storm-governor carries the winners that escape).
    runs.push_back(appRun("x264-default", "x264", 4, 1));

    // Abnormal ends: the deadlock and truncation markers, and spans
    // closed as run-end.
    runs.push_back({"deadlock", deadlockingProgram(), txraceConfig()});
    TimelineRun trunc{"truncated", conflictingProgram(),
                      txraceConfig()};
    trunc.cfg.machine.interruptPerStep = 0.0;
    trunc.cfg.machine.maxSteps = 150;
    runs.push_back(std::move(trunc));
    return runs;
}

/** Pinned renderings of one run (hash + length of each view, the
 *  Chrome event count, and how the run ended). The values come from
 *  the separate text and Chrome recorders the stream replaced; the
 *  renderers must reproduce them exactly, so never regenerate them
 *  from the renderers themselves. A row moves only when its run
 *  does, and only after the old and new text views have been diffed
 *  line by line and every difference explained. */
struct Pin
{
    const char *name;
    uint64_t textHash;
    size_t textLen;
    uint64_t chromeHash;
    size_t chromeLen;
    uint64_t chromeEvents;
    sim::RunError::Kind end;
};

using Kind = sim::RunError::Kind;

constexpr Pin kPins[] = {
    {"txfail-region", 0x451059f2360b7387ull, 2481,
     0x6abb54609921cd39ull, 5610, 56, Kind::None},
    {"vips-storm-governor", 0x4a73293cef7fb955ull, 134398,
     0x75bf9c7527d7cdb6ull, 239159, 2374, Kind::None},
    {"apache-monitor-5", 0x0f39dab3cf47b90dull, 21981,
     0x3632de841a1037c3ull, 46602, 384, Kind::None},
    {"apache-monitor-1.8", 0xeb9591c1f7369c74ull, 22102,
     0x3632de841a1037c3ull, 46602, 384, Kind::None},
    {"x264-monitor-1", 0x86325b9b9b0b1dabull, 3832,
     0xc2b26a4c4121f052ull, 1292, 10, Kind::None},
    {"vips-monitor-1", 0x3532258606f1a2dcull, 21251,
     0xd6ffbb3e10e2bd1eull, 6033, 58, Kind::Budget},
    {"x264-default", 0x0c26d346053733c4ull, 7575,
     0x3617fb781bd14fd2ull, 15450, 154, Kind::None},
    {"deadlock", 0x9bb0be0bbda599bbull, 1014,
     0x25b74d63d68fb70aull, 2409, 23, Kind::Deadlock},
    {"truncated", 0xe1b8d7e462f14269ull, 808,
     0xb807ecdd6710749eull, 2031, 19, Kind::Truncated},
};

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
textView(const core::RunResult &r, const fault::FaultPlan &faults,
         size_t limit = 0)
{
    std::ostringstream os;
    core::printTimeline(r.telemetry.flight, faults, os, limit);
    return os.str();
}

/** One parsed text-view line. */
struct Line
{
    uint64_t step;
    Tid tid;
    std::string kind;
};

std::vector<Line>
parseText(const std::string &text)
{
    std::vector<Line> lines;
    std::istringstream is(text);
    std::string row;
    while (std::getline(is, row)) {
        unsigned long long step = 0;
        unsigned tid = 0;
        char tag[64] = {};
        if (std::sscanf(row.c_str(), "[%llu] t%u %63[^:]", &step, &tid,
                        tag) == 3)
            lines.push_back(Line{step, tid, tag});
    }
    return lines;
}

} // namespace

TEST(TimelineGolden, BothViewsMatchThePins)
{
    std::vector<TimelineRun> runs = timelineRuns();
    ASSERT_EQ(runs.size(), std::size(kPins));
    for (size_t i = 0; i < runs.size(); ++i) {
        TimelineRun &run = runs[i];
        const Pin &pin = kPins[i];
        ASSERT_STREQ(run.name, pin.name);
        run.cfg.machine.recordTimeline = true;
        core::RunResult r = core::runProgram(run.program, run.cfg);
        EXPECT_EQ(r.error.kind, pin.end) << pin.name;

        std::string text = textView(r, run.cfg.machine.faults);
        std::ostringstream chrome;
        uint64_t n = core::writeChromeTrace(
            r.telemetry.flight, run.cfg.machine.faults,
            r.error.stepsExecuted, chrome);
        EXPECT_EQ(text.size(), pin.textLen) << pin.name;
        EXPECT_EQ(fnv1a(text), pin.textHash) << pin.name;
        EXPECT_EQ(chrome.str().size(), pin.chromeLen) << pin.name;
        EXPECT_EQ(fnv1a(chrome.str()), pin.chromeHash) << pin.name;
        EXPECT_EQ(n, pin.chromeEvents) << pin.name;
    }
}

TEST(EventLog, DisabledByDefault)
{
    ir::Program p = conflictingProgram();
    core::RunConfig cfg = txraceConfig();
    cfg.machine.interruptPerStep = 0.0;
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_FALSE(r.telemetry.flight.timelineEnabled());
    EXPECT_TRUE(r.telemetry.flight.timeline().empty());
    EXPECT_TRUE(textView(r, cfg.machine.faults).empty());
}

TEST(EventLog, RecordsTheTxFailProtocolSequence)
{
    ir::Program p = conflictingProgram();
    core::RunConfig cfg = txraceConfig();
    // The paper's protocol alone: no winner replay between the abort
    // and the TxFail write.
    cfg.slowpath = core::SlowPathKind::TxFail;
    cfg.machine.interruptPerStep = 0.0;
    cfg.machine.recordTimeline = true;
    core::RunResult r = core::runProgram(p, cfg);

    std::vector<Line> events =
        parseText(textView(r, cfg.machine.faults));
    ASSERT_FALSE(events.empty());

    // Steps are monotone.
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].step, events[i].step);

    // The Figure-3 sequence appears in order for some conflict:
    // conflict-abort -> txfail-write (same thread) -> slow-enter of
    // another thread -> its slow-exit.
    auto find_after = [&](size_t from, const std::string &kind) {
        for (size_t i = from; i < events.size(); ++i)
            if (events[i].kind == kind)
                return i;
        return events.size();
    };
    size_t abort_at = find_after(0, "conflict-abort");
    ASSERT_LT(abort_at, events.size());
    size_t txfail_at = find_after(abort_at, "txfail-write");
    ASSERT_LT(txfail_at, events.size());
    EXPECT_EQ(events[abort_at].tid, events[txfail_at].tid);
    size_t enter_at = find_after(txfail_at, "slow-enter");
    ASSERT_LT(enter_at, events.size());
    EXPECT_NE(events[enter_at].tid, events[txfail_at].tid);
    size_t exit_at = find_after(enter_at, "slow-exit");
    EXPECT_LT(exit_at, events.size());

    // Commits were recorded too.
    EXPECT_LT(find_after(0, "xbegin"), events.size());
    EXPECT_LT(find_after(0, "commit"), events.size());
}

TEST(EventLog, PrintLimitsAndCounts)
{
    FlightRecorder rec;
    rec.enableTimeline();
    for (uint64_t i = 0; i < 10; ++i)
        rec.note(1, FrKind::SlowExit, i);
    std::ostringstream os;
    core::printTimeline(rec, fault::FaultPlan{}, os, 3);
    EXPECT_NE(os.str().find(
                  "[0] t1 slow-exit: region finished; back to fast path"),
              std::string::npos);
    EXPECT_NE(os.str().find("(7 more)"), std::string::npos);
}

TEST(EventLog, RecordIsNoOpWhenDisabled)
{
    FlightRecorder rec;
    EXPECT_FALSE(rec.timelineEnabled());
    rec.note(1, FrKind::TxFailWrite, 1);
    EXPECT_TRUE(rec.timeline().empty());
    EXPECT_EQ(rec.dropped(), 0u);

    // Enabled, the per-access kinds still stay out of the timeline.
    rec.enableTimeline();
    rec.note(1, FrKind::Access, 2, 7, 0x40, 1);
    rec.note(1, FrKind::Sync, 3, 8);
    EXPECT_TRUE(rec.timeline().empty());
    rec.note(1, FrKind::TxFailWrite, 4);
    EXPECT_EQ(rec.timeline().size(), 1u);
}

TEST(TimelineGolden, PerCheckBudgetGatesStayRingOnly)
{
    // Of the Budget events only the region gate is drawn, so the
    // per-check gates (one per refused slow-path check) must not fill
    // the timeline.
    using telemetry::FrBudget;
    FlightRecorder rec;
    rec.enableRing();
    rec.enableTimeline();
    for (FrBudget b : {FrBudget::RegionGated, FrBudget::CheckGated,
                       FrBudget::Unsatisfiable})
        rec.note(1, FrKind::Budget, 5, 9, static_cast<uint64_t>(b));
    ASSERT_EQ(rec.timeline().size(), 1u);
    EXPECT_EQ(rec.timeline()[0].ev.arg,
              static_cast<uint64_t>(FrBudget::RegionGated));
    if (FlightRecorder::kCompiledIn) {
        EXPECT_EQ(rec.offered(1), 3u);
    }

    // A monitor run that gates checks records none of them.
    TimelineRun run = monitorRun("apache-monitor-1", "apache-stream", 1.0);
    run.cfg.machine.recordTimeline = true;
    core::RunResult r = core::runProgram(run.program, run.cfg);
    ASSERT_GT(r.budget.gatedChecks, 0u);
    for (const telemetry::FrEntry &entry : r.telemetry.flight.timeline())
        if (entry.ev.kind() == FrKind::Budget) {
            EXPECT_EQ(entry.ev.arg,
                      static_cast<uint64_t>(FrBudget::RegionGated));
        }
}

TEST(EventLog, CountsDroppedEventsPastTheCap)
{
    FlightRecorder rec;
    rec.enableTimeline();
    constexpr uint64_t kExtra = 37;
    for (uint64_t i = 0; i < FlightRecorder::kTimelineCap + kExtra; ++i)
        rec.note(2, FrKind::SlowExit, i);

    // Storage stops exactly at the cap; the overflow is counted, not
    // silently discarded.
    EXPECT_EQ(rec.timeline().size(), FlightRecorder::kTimelineCap);
    EXPECT_EQ(rec.dropped(), kExtra);

    // The printed timeline ends with the truncation marker carrying
    // the drop total and the step where recording stopped.
    std::ostringstream os;
    core::printTimeline(rec, fault::FaultPlan{}, os, 1);
    std::string expected =
        "[" + std::to_string(FlightRecorder::kTimelineCap) +
        "] t2 truncated: event cap reached, " +
        std::to_string(kExtra) + " event(s) dropped";
    EXPECT_NE(os.str().find(expected), std::string::npos) << os.str();
}
