/**
 * @file
 * Phase-profiler accounting tests: every executed scheduler step is
 * attributed to exactly one (thread, phase) cell, so the cells sum to
 * the run's step count — under every detection mode.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "core/governor.hh"
#include "core/policies.hh"
#include "ir/builder.hh"
#include "telemetry/phase.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using telemetry::Phase;

namespace {

/** Two workers hammering one shared line: plenty of transactions and
 *  conflicts, so fast and slow phases both occur under TxRace. */
ir::Program
contendedProgram(uint32_t workers = 2)
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64);
    ir::Addr own = b.alloc("own", 16 * 512);

    ir::FuncId worker = b.beginFunction("worker");
    b.loop(40, [&] {
        b.store(ir::AddrExpr::absolute(shared), "racy-store");
        b.load(ir::AddrExpr::perThread(own, 512));
        b.compute(3);
    });
    b.endFunction();

    b.beginFunction("main");
    b.spawn(worker, workers);
    b.joinAll();
    b.endFunction();
    return b.build();
}

core::RunConfig
config(core::RunMode mode)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine.seed = 7;
    cfg.machine.interruptPerStep = 0.0;
    return cfg;
}

uint64_t
cellSum(const telemetry::PhaseProfiler &phases)
{
    uint64_t sum = 0;
    for (const auto &per : phases.perThread())
        for (uint64_t c : per)
            sum += c;
    return sum;
}

} // namespace

TEST(PhaseProfiler, NoteAccumulatesPerThreadAndPhase)
{
    telemetry::PhaseProfiler p;
    p.noteSteps(0, Phase::Fast, 1);
    p.noteSteps(0, Phase::Fast, 1);
    p.noteSteps(2, Phase::Slow, 1);
    p.noteSteps(1, Phase::Native, 1);
    // An empty batch (a quantum cut before its first step) adds no
    // row for a thread that has not stepped.
    p.noteSteps(5, Phase::Native, 0);
    EXPECT_EQ(p.total(), 4u);
    EXPECT_EQ(p.count(Phase::Fast), 2u);
    EXPECT_EQ(p.count(Phase::Slow), 1u);
    EXPECT_EQ(p.count(Phase::Degraded), 0u);
    EXPECT_EQ(p.count(Phase::Native), 1u);
    ASSERT_EQ(p.perThread().size(), 3u);
    EXPECT_EQ(p.perThread()[0][static_cast<size_t>(Phase::Fast)], 2u);
    EXPECT_EQ(p.perThread()[2][static_cast<size_t>(Phase::Slow)], 1u);
    EXPECT_EQ(cellSum(p), p.total());
}

TEST(PhaseProfiler, StepsSumToTotalUnderEveryMode)
{
    ir::Program prog = contendedProgram();
    for (core::RunMode mode :
         {core::RunMode::Native, core::RunMode::TSan,
          core::RunMode::TxRaceProfLoopcut, core::RunMode::TxRaceNoOpt}) {
        core::RunResult r = core::runProgram(prog, config(mode));
        ASSERT_TRUE(r.error.ok());
        const auto &phases = r.telemetry.phases;
        // One note per executed step; the per-(thread, phase) cells
        // partition the run exactly.
        EXPECT_EQ(phases.total(), r.error.stepsExecuted)
            << "mode " << core::runModeName(mode);
        EXPECT_EQ(cellSum(phases), phases.total());
        uint64_t by_phase = 0;
        for (size_t p = 0; p < telemetry::kNumPhases; ++p)
            by_phase += phases.count(static_cast<Phase>(p));
        EXPECT_EQ(by_phase, phases.total());
    }
}

TEST(PhaseProfiler, TxRaceSpendsStepsInFastPath)
{
    core::RunResult r = core::runProgram(
        contendedProgram(), config(core::RunMode::TxRaceProfLoopcut));
    ASSERT_TRUE(r.error.ok());
    // The transactionalized workers must spend time inside HTM.
    EXPECT_GT(r.telemetry.phases.count(Phase::Fast), 0u);
    // Spawning/joining happens outside any monitored region.
    EXPECT_GT(r.telemetry.phases.count(Phase::Native), 0u);
}

TEST(PhaseProfiler, CostCellsPartitionTotalCostUnderEveryMode)
{
    // The cost dimension mirrors the step dimension: every unit of
    // virtual cost lands in exactly one (thread, phase) cell, so the
    // cells sum to the run's total cost — the invariant monitor-mode
    // budget accounting leans on.
    ir::Program prog = contendedProgram();
    for (core::RunMode mode :
         {core::RunMode::Native, core::RunMode::TSan,
          core::RunMode::TxRaceProfLoopcut, core::RunMode::TxRaceNoOpt}) {
        core::RunResult r = core::runProgram(prog, config(mode));
        ASSERT_TRUE(r.error.ok());
        const auto &phases = r.telemetry.phases;
        EXPECT_EQ(phases.totalCost(), r.totalCost)
            << "mode " << core::runModeName(mode);
        uint64_t cells = 0;
        for (const auto &per : phases.perThreadCost())
            for (uint64_t c : per)
                cells += c;
        EXPECT_EQ(cells, phases.totalCost());
        uint64_t by_phase = 0;
        for (size_t p = 0; p < telemetry::kNumPhases; ++p)
            by_phase += phases.costOf(static_cast<Phase>(p));
        EXPECT_EQ(by_phase, phases.totalCost());
    }
}

TEST(PhaseProfiler, GovernorBackoffStallIsDegradedCost)
{
    // The in-place retry stall is time spent *because of* degradation
    // management — it must land in the degraded cost bucket, not get
    // mistaken for productive fast-path time.
    ir::Program prog = contendedProgram();
    core::NativePolicy policy;
    sim::MachineConfig mcfg;
    sim::Machine m(prog, mcfg, policy);

    core::GovernorConfig cfg;
    cfg.enabled = true;
    core::FallbackGovernor gov(cfg, 1);
    gov.bindMetrics(m.tel().registry);

    ASSERT_EQ(m.tel().phases.costOf(Phase::Degraded), 0u);
    ASSERT_EQ(gov.onAbort(m, 0, sim::Bucket::Unknown),
              core::GovernorAction::RetryBackoff);
    EXPECT_EQ(m.tel().phases.costOf(Phase::Degraded),
              core::FallbackGovernor::kBackoffCost);
    EXPECT_EQ(m.tel().phases.costOf(Phase::Fast), 0u);
}

TEST(PhaseProfiler, NativeModeIsAllNative)
{
    core::RunResult r = core::runProgram(contendedProgram(),
                                         config(core::RunMode::Native));
    ASSERT_TRUE(r.error.ok());
    const auto &phases = r.telemetry.phases;
    EXPECT_EQ(phases.count(Phase::Native), phases.total());
    EXPECT_EQ(phases.count(Phase::Fast), 0u);
    EXPECT_EQ(phases.count(Phase::Slow), 0u);
    EXPECT_EQ(phases.count(Phase::Degraded), 0u);
}

namespace {

/** Checks the step partition of an abnormally ended run and returns
 *  its per-thread row count. */
size_t
abnormalRows(const core::RunResult &r, sim::RunError::Kind kind)
{
    EXPECT_EQ(r.error.kind, kind);
    const auto &phases = r.telemetry.phases;
    EXPECT_EQ(phases.total(), r.error.stepsExecuted);
    EXPECT_EQ(cellSum(phases), phases.total());
    return phases.perThread().size();
}

} // namespace

TEST(PhaseProfiler, StepsPartitionTruncationMidQuantum)
{
    // One thread, quantum 32: the guard trips on the 8th step of the
    // second quantum.
    ir::ProgramBuilder b;
    b.beginFunction("main");
    b.loop(100, [&] { b.compute(1); });
    b.endFunction();
    ir::Program prog = b.build();
    for (core::RunMode mode :
         {core::RunMode::Native, core::RunMode::TSan,
          core::RunMode::TxRaceDynLoopcut}) {
        core::RunConfig cfg = config(mode);
        cfg.machine.maxSteps = 40;
        core::RunResult r = core::runProgram(prog, cfg);
        EXPECT_EQ(abnormalRows(r, sim::RunError::Kind::Truncated), 1u)
            << core::runModeName(mode);
        EXPECT_EQ(r.error.stepsExecuted, 40u);
    }
}

TEST(PhaseProfiler, StepsPartitionTruncationOnAQuantumsFirstStep)
{
    // main spawns a worker, then blocks in join. Where the scheduler
    // picks main first, the join takes step 2 and the guard trips
    // before the worker's first step: the worker executed nothing and
    // must get no per-thread row. Where it picks the worker first,
    // the worker steps and the guard trips mid-quantum.
    ir::ProgramBuilder b;
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] { b.compute(1); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 1);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();
    int unstarted = 0;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        core::RunConfig cfg = config(core::RunMode::Native);
        cfg.machine.seed = seed;
        cfg.machine.maxSteps = 2;
        core::RunResult r = core::runProgram(prog, cfg);
        size_t rows = abnormalRows(r, sim::RunError::Kind::Truncated);
        bool worker_unstarted = false;
        for (const sim::BlockedThreadInfo &info : r.error.threads)
            if (info.tid == 1 && info.where.rfind("worker:0 ", 0) == 0)
                worker_unstarted = true;
        unstarted += worker_unstarted;
        EXPECT_EQ(rows, worker_unstarted ? 1u : 2u) << "seed " << seed;
    }
    EXPECT_GT(unstarted, 0);
    EXPECT_LT(unstarted, 16);
}

TEST(PhaseProfiler, StepsPartitionBadAccessStop)
{
    // Workers whose thread-strided address walks off the end of the
    // address space end the run with a BadAccess stop request.
    ir::ProgramBuilder b;
    ir::Addr small = b.alloc("small", 128, 64);
    ir::FuncId worker = b.beginFunction("worker");
    ir::AddrExpr e;
    e.base = small;
    e.threadStride = 4096;
    b.load(e);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();
    core::RunResult r =
        core::runProgram(prog, config(core::RunMode::TxRaceDynLoopcut));
    EXPECT_EQ(abnormalRows(r, sim::RunError::Kind::BadAccess), 3u);
}

TEST(PhaseProfiler, StepsPartitionBudgetStop)
{
    // An unsatisfiable 0.1% monitor budget on the stream soak ends
    // the run with the controller's Budget stop, inside the first
    // worker generation (main and its four workers).
    workloads::AppModel app = workloads::makeApp("apache-stream");
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = 1;
    cfg.governor.enabled = true;
    cfg.budget.enabled = true;
    cfg.budget.budgetPct = 0.1;
    core::RunResult r = core::runProgram(app.program, cfg);
    EXPECT_EQ(abnormalRows(r, sim::RunError::Kind::Budget), 5u);
}
