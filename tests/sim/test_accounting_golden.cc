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
#include "ir/builder.hh"
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

TEST(AccountingGolden, NativeHuntSweep)
{
    // Every app at the size a hunt campaign's set-up runs it (scale 8,
    // 4 workers, uncalibrated), at seed 1 and held-out seed 97: each
    // driver run's accounting digest plus the schedule hash and cost
    // of a directly built Machine, folded into one digest. Native runs
    // take the step loop's inline paths only.
    workloads::WorkloadParams params;
    params.nWorkers = 4;
    params.scale = 8;
    params.calibrate = false;
    std::string s;
    for (const std::string &name : workloads::appNames()) {
        workloads::AppModel app = workloads::makeApp(name, params);
        for (uint64_t seed : {1ull, 97ull}) {
            core::RunConfig cfg;
            cfg.mode = core::RunMode::Native;
            cfg.machine = app.machine;
            cfg.machine.seed = seed;
            core::RunResult r = core::runProgram(app.program, cfg);
            ASSERT_TRUE(r.error.ok()) << name << " seed " << seed;
            core::NativePolicy native;
            sim::Machine m(app.program, cfg.machine, native);
            ASSERT_TRUE(m.run().ok()) << name << " seed " << seed;
            s += name + "/" + std::to_string(seed) + " " +
                 std::to_string(accountingDigest(r)) + " " +
                 std::to_string(m.scheduleHash()) + " " +
                 std::to_string(m.totalCost()) + "\n";
        }
    }
    EXPECT_EQ(core::fnv1a64(s), 0x6ade7c2e76640d83ull) << "0x" << std::hex
                                       << core::fnv1a64(s);
}

namespace {

/** Two workers that compute, then access @p e in a 40-trip loop: the
 *  access leaves the 64-byte address space part-way through. */
core::RunResult
runStrayAccess(const ir::AddrExpr &e, bool store)
{
    ir::ProgramBuilder b;
    ir::Addr small = b.alloc("small", 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.compute(5);
    b.loop(40, [&] {
        b.compute(2);
        ir::AddrExpr at = e;
        at.base = small;
        if (store)
            b.store(at);
        else
            b.load(at);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    core::RunConfig cfg;
    cfg.mode = core::RunMode::Native;
    cfg.machine.seed = 1;
    return core::runProgram(b.build(), cfg);
}

} // namespace

TEST(AccountingGolden, NativeBadAccessMidQuantum)
{
    // A stray access raised inside a quantum, after inline ops have
    // run in it: the step it stops at, the cost booked up to it and
    // everything else the run accounted are pinned.
    core::RunResult rnd =
        runStrayAccess(ir::AddrExpr::randomIn(0, 12, 8), true);
    ASSERT_EQ(rnd.error.kind, sim::RunError::Kind::BadAccess);
    EXPECT_EQ(rnd.error.stepsExecuted, 17u);
    EXPECT_EQ(rnd.totalCost, 80u);
    EXPECT_EQ(accountingDigest(rnd), 0x468257ea42c659d3ull)
        << "0x" << std::hex << accountingDigest(rnd);

    core::RunResult loop =
        runStrayAccess(ir::AddrExpr::perIter(0, 8), false);
    ASSERT_EQ(loop.error.kind, sim::RunError::Kind::BadAccess);
    EXPECT_EQ(loop.error.stepsExecuted, 29u);
    EXPECT_EQ(loop.totalCost, 92u);
    EXPECT_EQ(accountingDigest(loop), 0xf825b330e9871680ull)
        << "0x" << std::hex << accountingDigest(loop);
}

TEST(AccountingGolden, NativeFaultEdgesCutQuanta)
{
    // A fault plan's episode edges are forced preemption points, so
    // they cut Native quanta (and move the schedule) although no
    // Native op is transactional.
    workloads::AppModel app = workloads::makeApp("vips");
    core::RunConfig cfg;
    cfg.mode = core::RunMode::Native;
    cfg.machine = app.machine;
    cfg.machine.seed = 1;
    cfg.machine.faults = fault::makeScenario("chaos", kFaultHorizon);
    core::RunResult r = core::runProgram(app.program, cfg);
    ASSERT_TRUE(r.error.ok());
    EXPECT_EQ(r.stats.get("fault.episodes_begun"), 5u);
    EXPECT_EQ(accountingDigest(r), 0x5e4bbd60a88db28aull)
        << "0x" << std::hex << accountingDigest(r);

    core::NativePolicy native;
    sim::Machine m(app.program, cfg.machine, native);
    ASSERT_TRUE(m.run().ok());
    EXPECT_EQ(m.scheduleHash(), 0x0bf63960e3856ab6ull) << "0x" << std::hex
                                      << m.scheduleHash();
    EXPECT_EQ(m.currentStep(), 154987u);
}
