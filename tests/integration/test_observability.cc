/**
 * @file
 * Observability acceptance tests: the forensics contract on the
 * apache-stream planted races (captures exist, the last-writer chain
 * names the racing sites, the serialized block and the --explain
 * rendering are byte-deterministic), and the campaign profile
 * pipeline (fleet profile independent of --jobs, equal to the merged
 * per-run profiles).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hh"
#include "core/driver.hh"
#include "core/metrics_export.hh"
#include "core/policies.hh"
#include "core/report_format.hh"
#include "fault/fault.hh"
#include "passes/passes.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/profile.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

workloads::AppModel
apacheStream()
{
    workloads::WorkloadParams params;
    params.calibrate = false;
    return workloads::makeApp("apache-stream", params);
}

core::RunConfig
flightConfig(const workloads::AppModel &app, uint64_t seed)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = seed;
    cfg.machine.recordFlight = true;
    return cfg;
}

std::string
metricsBytes(const ir::Program &prog, const core::RunResult &result)
{
    core::RunIdentity run;
    run.name = "apache-stream";
    std::ostringstream ss;
    core::writeMetricsJson(ss, run, false, &prog, result);
    return ss.str();
}

} // namespace

#ifndef TXRACE_NO_FLIGHTREC

TEST(Observability, RaceReportCarriesForensics)
{
    workloads::AppModel app = apacheStream();
    core::RunResult result =
        core::runProgram(app.program, flightConfig(app, 3));
    ASSERT_GT(result.races.count(), 0u);
    ASSERT_FALSE(result.telemetry.forensics.empty());
    EXPECT_LE(result.telemetry.forensics.size(),
              telemetry::Telemetry::kMaxForensics);

    for (const telemetry::ForensicsCapture &cap :
         result.telemetry.forensics) {
        EXPECT_EQ(cap.trigger, "race");
        EXPECT_FALSE(cap.kind.empty());
        EXPECT_NE(cap.siteA, ir::kNoInstr);
        EXPECT_NE(cap.siteB, ir::kNoInstr);
        // The capture's site pair is one of the reported races.
        bool matches = false;
        for (const detector::Race &race : result.races.all())
            if (race.first == cap.siteA && race.second == cap.siteB)
                matches = true;
        EXPECT_TRUE(matches)
            << "capture sites #" << cap.siteA << "/#" << cap.siteB
            << " not in the race report";
        ASSERT_FALSE(cap.threads.empty());
        for (const telemetry::ForensicsThread &ft : cap.threads)
            EXPECT_FALSE(ft.window.empty());
    }
}

TEST(Observability, LastWriterChainNamesRacingSites)
{
    workloads::AppModel app = apacheStream();
    core::RunResult result =
        core::runProgram(app.program, flightConfig(app, 3));
    ASSERT_FALSE(result.telemetry.forensics.empty());

    // At least one capture's chain must end at one of its racing
    // sites: the race was detected at the access recorded last on
    // that granule. (Read endpoints never appear in a write chain,
    // so we assert over write endpoints.)
    size_t withChain = 0, naming = 0;
    for (const telemetry::ForensicsCapture &cap :
         result.telemetry.forensics) {
        if (cap.lastWriters.empty())
            continue;
        ++withChain;
        for (const telemetry::ForensicsWrite &lw : cap.lastWriters) {
            EXPECT_EQ(lw.granule, cap.granule);
            if (lw.site == cap.siteA || lw.site == cap.siteB) {
                ++naming;
                break;
            }
        }
    }
    ASSERT_GT(withChain, 0u);
    EXPECT_EQ(naming, withChain)
        << "some last-writer chain never names a racing site";
}

TEST(Observability, ForensicsAreByteDeterministic)
{
    workloads::AppModel app = apacheStream();
    core::RunResult r1 =
        core::runProgram(app.program, flightConfig(app, 5));
    core::RunResult r2 =
        core::runProgram(app.program, flightConfig(app, 5));
    ASSERT_FALSE(r1.telemetry.forensics.empty());
    // Same seed -> byte-identical metrics JSON (which embeds the
    // txrace-forensics-v1 block) and --explain rendering.
    EXPECT_EQ(metricsBytes(app.program, r1),
              metricsBytes(app.program, r2));
    std::ostringstream e1, e2;
    core::printForensics(app.program, r1, e1);
    core::printForensics(app.program, r2, e2);
    EXPECT_EQ(e1.str(), e2.str());
    EXPECT_NE(e1.str().find("txrace-forensics-v1"), std::string::npos);
    EXPECT_NE(e1.str().find("last-writer chain"), std::string::npos);
}

#endif // !TXRACE_NO_FLIGHTREC

namespace {

/** What a recorder must never change: the race keys, the full stats
 *  dump, the schedule hash, and the virtual-time cost. */
struct Observed
{
    std::vector<std::tuple<uint32_t, uint32_t, int>> raceKeys;
    std::string stats;
    uint64_t scheduleHash = 0;
    uint64_t totalCost = 0;

    bool
    operator==(const Observed &o) const
    {
        return raceKeys == o.raceKeys && stats == o.stats &&
               scheduleHash == o.scheduleHash &&
               totalCost == o.totalCost;
    }
};

/** Run @p cfg on a Machine built directly (the schedule hash lives on
 *  the Machine) with the given recorder toggles. */
Observed
observe(const ir::Program &prog, core::RunConfig cfg, bool ring,
        bool timeline)
{
    cfg.machine.recordFlight = ring;
    cfg.machine.recordTimeline = timeline;
    ir::Program prepared = passes::preparedForTxRace(prog, cfg.passes);
    core::TxRacePolicy policy(cfg);
    sim::Machine m(prepared, cfg.machine, policy);
    EXPECT_TRUE(m.run().ok());
    Observed o;
    for (const detector::Race &race : m.det().races().all())
        o.raceKeys.emplace_back(race.first, race.second,
                                static_cast<int>(race.kind));
    StatSet stats;
    m.tel().registry.exportTo(stats);
    for (const auto &[name, v] : stats.all())
        o.stats += name + "=" + std::to_string(v) + "\n";
    o.scheduleHash = m.scheduleHash();
    o.totalCost = m.totalCost();
    if (!ring) {
        EXPECT_TRUE(m.tel().forensics.empty());
    }
    EXPECT_EQ(m.tel().flight.timelineEnabled(), timeline);
    EXPECT_EQ(m.tel().flight.ringEnabled(),
              ring && telemetry::FlightRecorder::kCompiledIn);
    return o;
}

/** The same observation through core::runProgram, so the toggles
 *  also reach the driver's profiling run (ProfLoopcut), whose
 *  loop-cut table feeds the measured run. The driver does not expose
 *  the schedule hash; the direct-Machine rows cover it. */
Observed
observeDriver(const ir::Program &prog, core::RunConfig cfg, bool ring,
              bool timeline)
{
    cfg.machine.recordFlight = ring;
    cfg.machine.recordTimeline = timeline;
    core::RunResult r = core::runProgram(prog, cfg);
    EXPECT_TRUE(r.error.ok());
    Observed o;
    for (const detector::Race &race : r.races.all())
        o.raceKeys.emplace_back(race.first, race.second,
                                static_cast<int>(race.kind));
    for (const auto &[name, v] : r.stats.all())
        o.stats += name + "=" + std::to_string(v) + "\n";
    o.totalCost = r.totalCost;
    if (!ring) {
        EXPECT_TRUE(r.telemetry.forensics.empty());
    }
    EXPECT_EQ(r.telemetry.flight.timeline().empty(), !timeline);
    return o;
}

} // namespace

TEST(Observability, FlightRecorderIsObserveOnly)
{
    // Toggling either recorder sink must not change detection, cost or
    // scheduling: the run is a pure function of (program, config,
    // seed) and the recorders only watch. In a build with the ring
    // compiled out, its toggle is inert and the rows still must agree.
    workloads::AppModel apache = apacheStream();
    core::RunConfig racy = flightConfig(apache, 7);
    racy.mode = core::RunMode::TxRaceDynLoopcut;

    workloads::WorkloadParams params;
    params.nWorkers = 8;
    params.calibrate = false;
    workloads::AppModel vips = workloads::makeApp("vips", params);
    core::RunConfig storm;
    storm.mode = core::RunMode::TxRaceDynLoopcut;
    storm.machine = vips.machine;
    storm.machine.seed = 3;
    storm.machine.faults =
        fault::makeScenario("interrupt-storm", 20'000);
    storm.governor.enabled = true;

    struct Scenario
    {
        const char *name;
        const ir::Program &program;
        core::RunConfig cfg;
        bool racy;  ///< planted races: forensics captures fire
    };
    const Scenario scenarios[] = {
        {"apache-stream", apache.program, racy, true},
        {"vips-storm", vips.program, storm, false}};
    for (const Scenario &sc : scenarios) {
        const Observed base = observe(sc.program, sc.cfg, false, false);
        if (sc.racy) {
            EXPECT_FALSE(base.raceKeys.empty()) << sc.name;
        }
        for (bool ring : {false, true})
            for (bool timeline : {false, true})
                EXPECT_TRUE(observe(sc.program, sc.cfg, ring,
                                    timeline) == base)
                    << sc.name << " ring=" << ring
                    << " timeline=" << timeline;
    }

    // Through the driver in ProfLoopcut mode (the default txrace_run
    // mode), where the profiling run records too. apache-stream runs
    // no transactions; vips learns a loop-cut table, so a recorder
    // that perturbed the profiling run shows there.
    const core::RunConfig vipsProf = flightConfig(vips, 3);
    const Scenario driverScenarios[] = {
        {"apache-stream", apache.program, flightConfig(apache, 7), true},
        {"vips-prof", vips.program, vipsProf, false}};
    for (const Scenario &sc : driverScenarios) {
        ASSERT_EQ(sc.cfg.mode, core::RunMode::TxRaceProfLoopcut);
        const Observed base =
            observeDriver(sc.program, sc.cfg, false, false);
        if (sc.racy) {
            EXPECT_FALSE(base.raceKeys.empty()) << sc.name;
        }
        for (bool ring : {false, true})
            for (bool timeline : {false, true})
                EXPECT_TRUE(observeDriver(sc.program, sc.cfg, ring,
                                          timeline) == base)
                    << sc.name << " driver ring=" << ring
                    << " timeline=" << timeline;
    }
}

TEST(Observability, RunProfileMatchesRunCounters)
{
    workloads::AppModel app = apacheStream();
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = 3;
    core::RunResult result = core::runProgram(app.program, cfg);
    telemetry::Profile p =
        core::buildRunProfile("apache-stream", result);
    ASSERT_EQ(p.apps.size(), 1u);
    const telemetry::AppProfile &a = p.apps.at("apache-stream");
    EXPECT_EQ(a.runs, 1u);
    EXPECT_EQ(a.txBegins, result.stats.get("tx.begins"));
    EXPECT_EQ(a.txCommitted, result.stats.get("tx.committed"));
    EXPECT_EQ(a.windowReplays, result.stats.get("txrace.window.replays"));
}

TEST(Observability, CampaignProfileIndependentOfJobs)
{
    campaign::CampaignConfig cfg;
    cfg.apps = {"vips", "x264"};
    cfg.seedsPerApp = 2;
    cfg.jobs = 1;
    campaign::CampaignResult one = campaign::runCampaign(cfg);
    cfg.jobs = 4;
    campaign::CampaignResult four = campaign::runCampaign(cfg);

    std::ostringstream b1, b4;
    one.profile.write(b1);
    four.profile.write(b4);
    EXPECT_FALSE(one.profile.empty());
    EXPECT_EQ(b1.str(), b4.str());
    // Each app accumulated exactly its seed budget.
    EXPECT_EQ(one.profile.apps.at("vips").runs, cfg.seedsPerApp);
    EXPECT_EQ(one.profile.apps.at("x264").runs, cfg.seedsPerApp);
}

TEST(Observability, ProgressStreamHeartbeats)
{
    campaign::CampaignConfig cfg;
    cfg.apps = {"vips"};
    cfg.seedsPerApp = 4;
    cfg.jobs = 2;
    cfg.progressEvery = 2;
    std::ostringstream stream;
    campaign::CampaignResult result =
        campaign::runCampaign(cfg, nullptr, &stream);
    ASSERT_EQ(result.runs, 4u);

    // 4 jobs at cadence 2 -> heartbeats at 2 and 4, plus the end
    // record: the record COUNT is a pure function of the config.
    std::istringstream lines(stream.str());
    std::string line;
    size_t records = 0, ends = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        ++records;
        EXPECT_NE(line.find("\"schema\":\"txrace-progress-v1\""),
                  std::string::npos);
        if (line.find("\"event\":\"end\"") != std::string::npos)
            ++ends;
    }
    EXPECT_EQ(records, 3u);
    EXPECT_EQ(ends, 1u);
    // The end record carries the final totals.
    EXPECT_NE(stream.str().find("\"jobs_done\":4"),
              std::string::npos);
}

TEST(Observability, TraceExportHasOneSpanPerJob)
{
    campaign::CampaignConfig cfg;
    cfg.apps = {"vips"};
    cfg.seedsPerApp = 3;
    cfg.jobs = 2;
    campaign::CampaignResult result = campaign::runCampaign(cfg);
    ASSERT_EQ(result.timing.spans.size(), result.runs);
    std::ostringstream ss;
    campaign::writeCampaignTrace(ss, result);
    std::string trace = ss.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    size_t spans = 0, pos = 0;
    while ((pos = trace.find("\"ph\":\"X\"", pos)) !=
           std::string::npos) {
        ++spans;
        pos += 1;
    }
    EXPECT_EQ(spans, result.runs);
}
