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
    p.note(0, Phase::Fast);
    p.note(0, Phase::Fast);
    p.note(2, Phase::Slow);
    p.note(1, Phase::Native);
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
