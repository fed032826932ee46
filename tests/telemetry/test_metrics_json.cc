/**
 * @file
 * Schema tests of the telemetry exporters: the txrace-metrics-v1
 * document written by `txrace_run --metrics-json` and the Chrome
 * trace-event timeline written by `--trace-json`. These are the
 * stability contract external consumers parse, so the required keys
 * are asserted explicitly (a lightweight golden-schema check).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/driver.hh"
#include "core/metrics_export.hh"
#include "core/report_format.hh"
#include "ir/builder.hh"

using namespace txrace;

namespace {

ir::Program
racyProgram()
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64);
    ir::Addr data = b.alloc("data", 4096);
    ir::FuncId worker = b.beginFunction("worker");
    // The syscall splits each iteration into its own transactional
    // region, so the run has both commits and conflict aborts.
    b.loop(40, [&] {
        for (int i = 0; i < 6; ++i)
            b.load(ir::AddrExpr::absolute(data + 8 * i), "pad");
        b.store(ir::AddrExpr::absolute(shared), "racy-store");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    return b.build();
}

core::RunResult
runTxRace(const ir::Program &prog, bool record_timeline)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine.seed = 11;
    cfg.machine.interruptPerStep = 0.0;
    cfg.machine.recordTimeline = record_timeline;
    return core::runProgram(prog, cfg);
}

std::string
metricsDocument(const ir::Program &prog, const core::RunResult &result)
{
    core::RunIdentity run;
    run.name = "unit-test";
    run.seed = 11;
    run.workers = 3;
    std::ostringstream ss;
    core::writeMetricsJson(ss, run, false, &prog, result);
    return ss.str();
}

} // namespace

TEST(MetricsJson, ContainsEveryRequiredSection)
{
    ir::Program prog = racyProgram();
    core::RunResult r = runTxRace(prog, false);
    ASSERT_TRUE(r.error.ok());
    std::string doc = metricsDocument(prog, r);

    for (const char *needle :
         {"\"schema\": \"txrace-metrics-v1\"", "\"run\":",
          "\"app\": \"unit-test\"", "\"mode\": \"txrace\"",
          "\"cost_buckets\":", "\"counters\":", "\"histograms\":",
          "\"phases\":", "\"total_steps\":", "\"per_thread\":",
          "\"abort_causes\":", "\"conflicts\":", "\"top_lines\":",
          "\"races\":"}) {
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "missing " << needle << " in:\n" << doc;
    }
    // The per-mode phase breakdown carries all four phase keys.
    for (const char *phase :
         {"\"fast\":", "\"slow\":", "\"degraded\":", "\"native\":"})
        EXPECT_NE(doc.find(phase), std::string::npos) << phase;
    // Counters flow through under their legacy names.
    EXPECT_NE(doc.find("\"tx.committed\":"), std::string::npos);
    EXPECT_NE(doc.find("\"machine.steps\":"), std::string::npos);
    // Committed-transaction cost histogram is populated.
    EXPECT_NE(doc.find("\"tx.cost.committed\":"), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\":"), std::string::npos);
}

TEST(MetricsJson, PhaseCountsSumToTotalSteps)
{
    ir::Program prog = racyProgram();
    core::RunResult r = runTxRace(prog, false);
    ASSERT_TRUE(r.error.ok());
    const auto &phases = r.telemetry.phases;
    uint64_t sum = 0;
    for (size_t p = 0; p < telemetry::kNumPhases; ++p)
        sum += phases.count(static_cast<telemetry::Phase>(p));
    EXPECT_EQ(sum, phases.total());
    EXPECT_EQ(phases.total(), r.error.stepsExecuted);
    // And the document reports the same step total in both places.
    std::string doc = metricsDocument(prog, r);
    std::string steps =
        "\"steps\": " + std::to_string(r.error.stepsExecuted);
    std::string total =
        "\"total_steps\": " + std::to_string(phases.total());
    EXPECT_NE(doc.find(steps), std::string::npos) << doc;
    EXPECT_NE(doc.find(total), std::string::npos) << doc;
}

TEST(MetricsJson, ConflictHeatmapAttributesContendedLine)
{
    ir::Program prog = racyProgram();
    core::RunResult r = runTxRace(prog, false);
    ASSERT_TRUE(r.error.ok());
    // Three workers share one cache line: conflicts must be recorded
    // and attributed to a site inside @worker.
    EXPECT_GT(r.telemetry.conflicts.total(), 0u);
    auto top = r.telemetry.conflicts.topN(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_GT(top[0].conflicts, 0u);
    std::string doc = metricsDocument(prog, r);
    EXPECT_NE(doc.find("(in @worker)"), std::string::npos) << doc;
}

TEST(TraceJson, IsAChromeTraceEventArray)
{
    ir::Program prog = racyProgram();
    core::RunResult r = runTxRace(prog, true);
    ASSERT_TRUE(r.error.ok());
    ASSERT_FALSE(r.telemetry.flight.timeline().empty());

    std::ostringstream ss;
    uint64_t n = core::writeChromeTrace(r.telemetry.flight, {},
                                        r.error.stepsExecuted, ss);
    EXPECT_GT(n, 0u);
    std::string doc = ss.str();

    // A JSON array of event objects...
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.front(), '[');
    EXPECT_EQ(doc[doc.find_last_not_of(" \n")], ']');
    // ...with thread-name metadata, complete (duration) spans, and the
    // per-event fields the trace viewers require.
    EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    for (const char *field :
         {"\"pid\":", "\"tid\":", "\"ts\":", "\"dur\":", "\"name\":",
          "\"cat\":"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
}

TEST(TraceJson, DisabledBufferRecordsNothing)
{
    core::RunResult r = runTxRace(racyProgram(), false);
    ASSERT_TRUE(r.error.ok());
    EXPECT_TRUE(r.telemetry.flight.timeline().empty());
    EXPECT_EQ(r.telemetry.flight.dropped(), 0u);
    std::ostringstream ss;
    EXPECT_EQ(core::writeChromeTrace(r.telemetry.flight, {},
                                     r.error.stepsExecuted, ss),
              0u);
}
