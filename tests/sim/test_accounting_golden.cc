/**
 * @file
 * Golden accounting pins for the step loop. Every number a run
 * accounts — total cost, the per-bucket split, every per-thread
 * phase-profiler row (steps and cost), every exported counter and the
 * reported race keys — is folded into one FNV digest per
 * (app, mode), and the schedule hash of a directly constructed
 * Machine is pinned under each policy. The loop's hot path may change
 * how it charges and attributes; it may not change what it charges.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "core/policies.hh"
#include "fault/fault.hh"
#include "passes/passes.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

/** Append one per-phase row to @p s. */
void
appendRow(std::string &s, const telemetry::PhaseProfiler::PerPhase &row)
{
    for (uint64_t v : row)
        s += std::to_string(v) + ",";
    s += "\n";
}

/** FNV digest of everything the run accounted. */
uint64_t
accountingDigest(const core::RunResult &r)
{
    std::string s = "cost=" + std::to_string(r.totalCost) + "\n";
    for (uint64_t b : r.buckets)
        s += std::to_string(b) + ",";
    s += "\n";
    const telemetry::PhaseProfiler &phases = r.telemetry.phases;
    s += "steps.rows=" +
         std::to_string(phases.perThread().size()) + "\n";
    for (const auto &row : phases.perThread())
        appendRow(s, row);
    s += "cost.rows=" +
         std::to_string(phases.perThreadCost().size()) + "\n";
    for (const auto &row : phases.perThreadCost())
        appendRow(s, row);
    for (const auto &[name, value] : r.stats.all())
        s += name + "=" + std::to_string(value) + "\n";
    for (const auto &[a, b] : r.races.keys())
        s += std::to_string(a) + "/" + std::to_string(b) + "\n";
    return core::fnv1a64(s);
}

/** One pinned run: the app under @p mode at seed 1, plus the few
 *  RunConfig fields the rows vary (defaults give a plain run). */
struct Golden
{
    const char *app;
    core::RunMode mode;
    uint64_t digest;
    uint32_t workers = 4;
    /** Fault scenario name (horizon kFaultHorizon); null for none. */
    const char *fault = nullptr;
    bool governor = false;
    /** Monitor budget in percent; 0 leaves the budget off. */
    double budgetPct = 0.0;
    core::SlowPathKind slowpath = core::SlowPathKind::Replay;
    double sampleRate = 1.0;
};

constexpr uint64_t kFaultHorizon = 30'000;

const Golden kGolden[] = {
    {"vips", core::RunMode::Native,
     0xc466463c99c9a59full},
    {"vips", core::RunMode::TSan,
     0x1450b917c1beb2cdull},
    {"vips", core::RunMode::TxRaceDynLoopcut,
     0x8af4a9d7e249749aull},
    {"bodytrack", core::RunMode::Native,
     0x7339205e3015eec0ull},
    {"bodytrack", core::RunMode::TSan,
     0x4847efdf05557fceull},
    {"bodytrack", core::RunMode::TxRaceDynLoopcut,
     0x02d99e4e60bc3e9bull},
    {"apache-stream", core::RunMode::Native,
     0xf54ab6f32396d877ull},
    {"apache-stream", core::RunMode::TSan,
     0xda5e5c84efabfb9aull},
    {"apache-stream", core::RunMode::TxRaceDynLoopcut,
     0x798944ff52399717ull},
    // The rows below reach every point where the step loop settles
    // pending cost before a hook: budget reads mid-run (monitor),
    // interrupt/retry aborts and rollback (chaos + governor), the pure
    // TxFail protocol, profiled loop-cuts and the other policies.
    {.app = "apache-stream", .mode = core::RunMode::TxRaceProfLoopcut,
     .digest = 0xe6de103b74ec7477ull, .governor = true, .budgetPct = 5.0},
    {.app = "vips", .mode = core::RunMode::TxRaceDynLoopcut,
     .digest = 0x7591574da3b39f03ull, .workers = 8, .fault = "chaos",
     .governor = true},
    {.app = "x264", .mode = core::RunMode::TxRaceDynLoopcut,
     .digest = 0xa0184eab9cbff87eull, .slowpath = core::SlowPathKind::TxFail},
    {"vips", core::RunMode::TxRaceProfLoopcut, 0x885c22102c09e202ull},
    {.app = "ferret", .mode = core::RunMode::TSanSampling,
     .digest = 0xe3b2e432426fd62full, .sampleRate = 0.5},
    {"canneal", core::RunMode::Eraser, 0x4fc2f8939c6964adull},
    {"raytrace", core::RunMode::RaceTM, 0x29dabb7332e8dde7ull},
    // TxRace abort-dispatch paths the rows above leave unreached:
    // the no-loop-cut scheme, retry exhaustion without the governor's
    // backoff, and a delayed TxFail publication in the pure protocol.
    {"vips", core::RunMode::TxRaceNoOpt, 0xecd7207e33a901d0ull},
    {.app = "vips", .mode = core::RunMode::TxRaceDynLoopcut,
     .digest = 0xa4ed5844e5535c88ull, .workers = 8, .fault = "retry-glitch"},
    {.app = "x264", .mode = core::RunMode::TxRaceDynLoopcut,
     .digest = 0x973fde71aa1a967aull, .workers = 8, .fault = "txfail-delay",
     .slowpath = core::SlowPathKind::TxFail},
};

/** Run @p g's configuration. */
core::RunResult
runGolden(const Golden &g)
{
    workloads::WorkloadParams params;
    params.nWorkers = g.workers;
    workloads::AppModel app = workloads::makeApp(g.app, params);
    core::RunConfig cfg;
    cfg.mode = g.mode;
    cfg.machine = app.machine;
    cfg.machine.seed = 1;
    if (g.fault)
        cfg.machine.faults = fault::makeScenario(g.fault, kFaultHorizon);
    cfg.governor.enabled = g.governor;
    cfg.budget.enabled = g.budgetPct > 0.0;
    cfg.budget.budgetPct = g.budgetPct;
    cfg.slowpath = g.slowpath;
    cfg.sampleRate = g.sampleRate;
    return core::runProgram(app.program, cfg);
}

} // namespace

TEST(AccountingGolden, RegistryRunsAccountExactly)
{
    for (const Golden &g : kGolden) {
        core::RunResult r = runGolden(g);
        ASSERT_TRUE(r.error.ok()) << g.app;
        EXPECT_EQ(accountingDigest(r), g.digest)
            << g.app << " " << core::runModeName(g.mode) << " 0x"
            << std::hex << accountingDigest(r);
    }
}

TEST(AccountingGolden, DirectMachineScheduleHashPerPolicy)
{
    // A Machine built directly (no driver) under each concrete policy
    // runs the generic lane; its schedule and cost are pinned too. The
    // TSan program instruments accesses only, so its schedule is
    // Native's.
    workloads::AppModel app = workloads::makeApp("vips");
    sim::MachineConfig mcfg = app.machine;
    mcfg.seed = 1;

    core::NativePolicy native;
    sim::Machine mn(app.program, mcfg, native);
    ASSERT_TRUE(mn.run().ok());
    EXPECT_EQ(mn.scheduleHash(), 0x60ef689e61937e15ull);
    EXPECT_EQ(mn.totalCost(), 163736u);

    ir::Program tsan_prog = passes::preparedForTSan(app.program);
    core::TsanPolicy tsan(1.0, 7);
    sim::Machine mt(tsan_prog, mcfg, tsan);
    ASSERT_TRUE(mt.run().ok());
    EXPECT_EQ(mt.scheduleHash(), 0x60ef689e61937e15ull);
    EXPECT_EQ(mt.totalCost(), 195422360u);

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine = mcfg;
    ir::Program tx_prog =
        passes::preparedForTxRace(app.program, cfg.passes);
    core::TxRacePolicy txrace(cfg);
    sim::Machine mx(tx_prog, cfg.machine, txrace);
    ASSERT_TRUE(mx.run().ok());
    EXPECT_EQ(mx.scheduleHash(), 0x25661096e4d45293ull);
    EXPECT_EQ(mx.totalCost(), 2803308u);
}

TEST(AccountingGolden, NativeTruncatedMidQuantum)
{
    // The runaway guard trips inside a quantum: the loop clamps the
    // quantum to the guard and truncates where it stops. Cost,
    // buckets and phase rows at the cut are pinned with the rest.
    workloads::AppModel app = workloads::makeApp("vips");
    core::RunConfig cfg;
    cfg.mode = core::RunMode::Native;
    cfg.machine = app.machine;
    cfg.machine.seed = 1;
    cfg.machine.maxSteps = 5'000;
    core::RunResult r = core::runProgram(app.program, cfg);
    ASSERT_TRUE(r.error.truncated());
    EXPECT_EQ(r.error.stepsExecuted, 5'000u);
    EXPECT_EQ(r.totalCost, 5407u);
    EXPECT_EQ(accountingDigest(r), 0xd0e9f38379d74b5aull)
        << "0x" << std::hex << accountingDigest(r);
}
