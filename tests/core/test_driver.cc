/**
 * @file
 * Unit tests for the experiment driver: mode dispatch, overhead
 * ordering, recall computation, and the ProfLoopcut profiling pre-run.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/driver.hh"
#include "ir/builder.hh"
#include "ir/text.hh"

using namespace txrace;
using namespace txrace::ir;

namespace {

/** Memory-heavy multithreaded program with one race. */
Program
benchmarkProgram()
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr racy = b.alloc("racy", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(6, [&] {
        // Mostly clean regions; the contended store is rare enough
        // that the fast path carries the bulk of the run.
        b.loop(6, [&] {
            for (int i = 0; i < 8; ++i)
                b.load(AddrExpr::randomIn(data, 64, 8));
            b.syscall(1);
        });
        for (int i = 0; i < 6; ++i)
            b.load(AddrExpr::randomIn(data, 64, 8));
        b.store(AddrExpr::absolute(racy), "racy store");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    return b.build();
}

core::RunConfig
config(core::RunMode mode, uint64_t seed = 1)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine.seed = seed;
    cfg.machine.interruptPerStep = 0.0;
    return cfg;
}

} // namespace

TEST(Driver, NativeRunHasOnlyBaseCost)
{
    Program p = benchmarkProgram();
    core::RunResult r =
        core::runProgram(p, config(core::RunMode::Native));
    EXPECT_GT(r.totalCost, 0u);
    EXPECT_EQ(r.buckets[static_cast<size_t>(sim::Bucket::Base)],
              r.totalCost);
    EXPECT_EQ(r.races.count(), 0u);
}

TEST(Driver, OverheadOrderingNativeTxRaceTSan)
{
    Program p = benchmarkProgram();
    core::RunResult native =
        core::runProgram(p, config(core::RunMode::Native));
    core::RunResult tsan =
        core::runProgram(p, config(core::RunMode::TSan));
    core::RunResult txr =
        core::runProgram(p, config(core::RunMode::TxRaceProfLoopcut));
    EXPECT_GT(tsan.totalCost, native.totalCost);
    EXPECT_GT(txr.totalCost, native.totalCost);
    EXPECT_LT(txr.totalCost, tsan.totalCost);
    EXPECT_NEAR(tsan.overheadVs(native),
                static_cast<double>(tsan.totalCost) /
                    static_cast<double>(native.totalCost),
                1e-12);
}

TEST(Driver, AllModesFindOrMissTheRaceAsExpected)
{
    Program p = benchmarkProgram();
    core::RunResult tsan =
        core::runProgram(p, config(core::RunMode::TSan));
    EXPECT_EQ(tsan.races.count(), 1u);
    // Wide windows: TxRace finds the race on most schedules. Whether
    // one seed's conflict lands in an overlapping transaction is luck,
    // so count seeds rather than pin one. The floor is the count of a
    // pipeline that does not end regions at syscall-loop exits (11 of
    // 20); the default finds 15.
    int found = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        core::RunResult txr = core::runProgram(
            p, config(core::RunMode::TxRaceDynLoopcut, seed));
        EXPECT_LE(txr.races.count(), 1u) << "seed " << seed;
        found += txr.races.count() == 1;
    }
    EXPECT_GE(found, 11);
    core::RunResult none = core::runProgram(
        p, [] {
            core::RunConfig c = config(core::RunMode::TSanSampling);
            c.sampleRate = 0.0;
            return c;
        }());
    EXPECT_EQ(none.races.count(), 0u);
}

TEST(Driver, RaceTmNamesTheVictimInstructionForTheConflictingLine)
{
    // Each worker's region stores the shared line, then moves on to
    // loads of its own line. When the other worker's store hits the
    // shared line, the victim's debug bits must name its store to that
    // line, not the private load it executed last.
    ProgramBuilder b;
    Addr shared = b.alloc("shared", 64);
    Addr own = b.alloc("own", 4 * 64);
    FuncId worker = b.beginFunction("worker");
    b.store(AddrExpr::absolute(shared), "shared store");
    b.loop(30, [&] { b.load(AddrExpr::perThread(own, 64), "own load"); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::RaceTM;
    cfg.machine.interruptPerStep = 0.0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        cfg.machine.seed = seed;
        core::RunResult r = core::runProgram(p, cfg);
        ASSERT_TRUE(r.error.ok());
        ASSERT_GT(r.stats.get("tx.abort.conflict"), 0u);
        ASSERT_EQ(r.races.count(), 1u);
        const detector::Race race = r.races.all().front();
        EXPECT_EQ(p.instr(race.first).tag, "shared store");
        EXPECT_EQ(p.instr(race.second).tag, "shared store");
    }
}

TEST(Driver, RaceTmNamesAReadOnlyVictimsRaceReadWrite)
{
    // The reader's transaction only loads the shared line before the
    // writer's store aborts it. The race is read-write: the
    // requester's store does not make the victim a writer.
    std::istringstream text(R"(
func @reader
  load [0x40]
  loop.begin trips=30
    load [0x1000 + i0*64]
  loop.end
end
func @writer
  compute cost=20
  store [0x40]
end
func @main
  create fn=0
  create fn=1
  join all
end
entry @main
)");
    Program p = parseProgramText(text);
    core::RunConfig cfg;
    cfg.mode = core::RunMode::RaceTM;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        cfg.machine.seed = seed;
        core::RunResult r = core::runProgram(p, cfg);
        ASSERT_EQ(r.races.count(), 1u);
        const detector::Race race = r.races.all().front();
        EXPECT_EQ(race.kind, detector::RaceKind::ReadWrite);
    }
}

TEST(Driver, SamplingRateInterpolatesCost)
{
    Program p = benchmarkProgram();
    core::RunConfig half = config(core::RunMode::TSanSampling);
    half.sampleRate = 0.5;
    core::RunResult r_half = core::runProgram(p, half);
    core::RunResult r_full =
        core::runProgram(p, config(core::RunMode::TSan));
    core::RunResult r_native =
        core::runProgram(p, config(core::RunMode::Native));
    EXPECT_GT(r_half.totalCost, r_native.totalCost);
    EXPECT_LT(r_half.totalCost, r_full.totalCost);
}

TEST(Driver, RecallOf)
{
    detector::RaceSet reference, tool;
    EXPECT_DOUBLE_EQ(core::recallOf(tool, reference), 1.0);  // empty ref
    reference.record(1, 2, detector::RaceKind::WriteWrite, 0);
    reference.record(3, 4, detector::RaceKind::WriteWrite, 0);
    EXPECT_DOUBLE_EQ(core::recallOf(tool, reference), 0.0);
    tool.record(1, 2, detector::RaceKind::WriteWrite, 0);
    EXPECT_DOUBLE_EQ(core::recallOf(tool, reference), 0.5);
    tool.record(3, 4, detector::RaceKind::WriteWrite, 0);
    tool.record(9, 9, detector::RaceKind::WriteWrite, 0);  // extra
    EXPECT_DOUBLE_EQ(core::recallOf(tool, reference), 1.0);
}

TEST(Driver, TxRaceModesShareInstrumentation)
{
    // All three TxRace variants run the same program shape; NoOpt
    // just lacks LoopCut instructions.
    Program p = benchmarkProgram();
    for (core::RunMode mode :
         {core::RunMode::TxRaceNoOpt, core::RunMode::TxRaceDynLoopcut,
          core::RunMode::TxRaceProfLoopcut}) {
        core::RunResult r = core::runProgram(p, config(mode));
        EXPECT_GT(r.stats.get("tx.committed"), 0u)
            << core::runModeName(mode);
    }
}

TEST(Driver, RunModeNames)
{
    EXPECT_STREQ(core::runModeName(core::RunMode::Native), "Native");
    EXPECT_STREQ(core::runModeName(core::RunMode::TSan), "TSan");
    EXPECT_STREQ(core::runModeName(core::RunMode::TSanSampling),
                 "TSan+Sampling");
    EXPECT_STREQ(core::runModeName(core::RunMode::TxRaceNoOpt),
                 "TxRace-NoOpt");
    EXPECT_STREQ(core::runModeName(core::RunMode::TxRaceDynLoopcut),
                 "TxRace-DynLoopcut");
    EXPECT_STREQ(core::runModeName(core::RunMode::TxRaceProfLoopcut),
                 "TxRace-ProfLoopcut");
    EXPECT_TRUE(core::isTxRaceMode(core::RunMode::TxRaceNoOpt));
    EXPECT_FALSE(core::isTxRaceMode(core::RunMode::TSan));
}

TEST(DriverDeathTest, UnfinalizedProgramIsFatal)
{
    Program p;
    Function fn;
    fn.name = "main";
    p.addFunction(std::move(fn));
    EXPECT_EXIT(core::runProgram(p, config(core::RunMode::Native)),
                testing::ExitedWithCode(1), "not finalized");
}
