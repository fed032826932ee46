/**
 * @file
 * Tests of the application models: every app builds and validates at
 * each evaluated thread count, the TSan baseline detects exactly the
 * planted races, TxRace never reports a race TSan does not (the
 * completeness property on realistic programs), the calibration hits
 * the paper's TSan overhead, and the expected miss patterns
 * (initialization idiom) hold.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::workloads;

namespace {

core::RunConfig
configFor(const AppModel &app, core::RunMode mode, uint64_t seed = 1)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine = app.machine;
    cfg.machine.seed = seed;
    return cfg;
}

} // namespace

TEST(Workloads, RegistryHasFourteenApps)
{
    EXPECT_EQ(appNames().size(), 14u);
    EXPECT_EQ(appNames().front(), "blackscholes");
    EXPECT_EQ(appNames().back(), "apache");
}

TEST(WorkloadsDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeApp("quake3"), testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(WorkloadsDeathTest, NeedsTwoWorkers)
{
    WorkloadParams params;
    params.nWorkers = 1;
    EXPECT_EXIT(makeApp("vips", params), testing::ExitedWithCode(1),
                "two workers");
}

class PerApp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PerApp, BuildsAtEveryThreadCount)
{
    for (uint32_t workers : {2u, 4u, 8u}) {
        WorkloadParams params;
        params.nWorkers = workers;
        params.calibrate = false;
        AppModel app = makeApp(GetParam(), params);
        EXPECT_TRUE(app.program.finalized());
        EXPECT_GT(app.program.numInstructions(), 0u);
        EXPECT_EQ(app.name, GetParam());
    }
}

TEST_P(PerApp, TSanFindsExactlyThePlantedRaces)
{
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp(GetParam(), params);
    core::RunResult tsan = core::runProgram(
        app.program, configFor(app, core::RunMode::TSan));
    EXPECT_EQ(tsan.races.count(), app.plantedRaces) << app.name;
}

TEST_P(PerApp, TxRaceIsCompleteAndSubsetOfTSan)
{
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp(GetParam(), params);
    core::RunResult tsan = core::runProgram(
        app.program, configFor(app, core::RunMode::TSan));
    core::RunResult txr = core::runProgram(
        app.program, configFor(app, core::RunMode::TxRaceProfLoopcut));
    // Every TxRace report appears in the happens-before ground truth:
    // no false positives, despite all the false-sharing conflicts.
    EXPECT_EQ(txr.races.intersectCount(tsan.races), txr.races.count())
        << app.name;
}

TEST_P(PerApp, TxRaceIsFasterThanTSan)
{
    // The paper's claim: TxRace beats TSan on every app. One seed is
    // one schedule draw, so the claim is made on the mean overhead
    // over seeds 1-10, with no slack.
    constexpr uint64_t kSeeds = 10;
    WorkloadParams params;
    AppModel app = makeApp(GetParam(), params);  // calibrated
    double tsan_sum = 0.0;
    double txr_sum = 0.0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        core::RunResult native = core::runProgram(
            app.program, configFor(app, core::RunMode::Native, seed));
        core::RunResult tsan = core::runProgram(
            app.program, configFor(app, core::RunMode::TSan, seed));
        core::RunResult txr = core::runProgram(
            app.program,
            configFor(app, core::RunMode::TxRaceProfLoopcut, seed));
        tsan_sum += tsan.overheadVs(native);
        txr_sum += txr.overheadVs(native);
    }
    EXPECT_LT(txr_sum / kSeeds, tsan_sum / kSeeds) << app.name;
}

TEST_P(PerApp, CalibrationApproximatesPaperTSanOverhead)
{
    WorkloadParams params;
    AppModel app = makeApp(GetParam(), params);
    core::RunResult native = core::runProgram(
        app.program, configFor(app, core::RunMode::Native));
    core::RunResult tsan = core::runProgram(
        app.program, configFor(app, core::RunMode::TSan));
    double measured = tsan.overheadVs(native);
    EXPECT_NEAR(measured, app.paper.tsanOverhead,
                app.paper.tsanOverhead * 0.15 + 0.3)
        << app.name;
}

TEST_P(PerApp, DeterministicForFixedSeed)
{
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp(GetParam(), params);
    core::RunResult a = core::runProgram(
        app.program, configFor(app, core::RunMode::TxRaceDynLoopcut, 3));
    core::RunResult b = core::runProgram(
        app.program, configFor(app, core::RunMode::TxRaceDynLoopcut, 3));
    EXPECT_EQ(a.totalCost, b.totalCost);
    EXPECT_EQ(a.races.keys(), b.races.keys());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, PerApp,
    ::testing::ValuesIn(appNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Workloads, InitIdiomRacesMissedByTxRace)
{
    // bodytrack misses its two initialization-idiom races; facesim
    // misses one (paper §8.3). Whether the init write and the late
    // reads land in overlapping transactions is schedule luck, so the
    // seed is pinned to one verified to produce the paper's outcome
    // (other seeds may catch them — see VipsFindsDifferentSubsetsPerSeed
    // for the flip side).
    for (const char *name : {"bodytrack", "facesim"}) {
        WorkloadParams params;
        params.calibrate = false;
        AppModel app = makeApp(name, params);
        ASSERT_GT(app.initIdiomRaces, 0u);
        core::RunResult txr = core::runProgram(
            app.program,
            configFor(app, core::RunMode::TxRaceProfLoopcut, 2));
        EXPECT_LE(txr.races.count(),
                  app.plantedRaces - app.initIdiomRaces)
            << name;
    }
}

TEST(Workloads, VipsFindsDifferentSubsetsPerSeed)
{
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("vips", params);
    detector::RaceSet seen;
    size_t first_run = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        core::RunResult txr = core::runProgram(
            app.program,
            configFor(app, core::RunMode::TxRaceProfLoopcut, seed));
        if (seed == 1)
            first_run = txr.races.count();
        seen.merge(txr.races);
        // Subset per run, as in the paper.
        EXPECT_LT(txr.races.count(), app.plantedRaces);
        EXPECT_GT(txr.races.count(), app.plantedRaces / 3);
    }
    // The union across seeds strictly grows (schedule sensitivity).
    EXPECT_GT(seen.count(), first_run);
}

TEST(Workloads, FreqmineBenefitsFromSingleThreadElision)
{
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("freqmine", params);
    core::RunResult txr = core::runProgram(
        app.program, configFor(app, core::RunMode::TxRaceProfLoopcut));
    core::RunResult native = core::runProgram(
        app.program, configFor(app, core::RunMode::Native));
    // main's set-up before its first spawn is elided statically; with
    // it gone, the other passes leave nothing to check, so TxRace
    // costs nothing over Native.
    EXPECT_GT(txr.stats.get("pass.elide.pre_spawn"), 0u);
    EXPECT_EQ(txr.totalCost, native.totalCost);
}

TEST(Workloads, BodytrackUnknownAbortsDominate)
{
    // The paper's abort fingerprint belongs to the paper's
    // instrumentation, so elision is off: by default bodytrack's empty
    // per-iteration regions run bare, and with them go the
    // transactions that absorbed most of its interrupts.
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("bodytrack", params);
    core::RunConfig cfg =
        configFor(app, core::RunMode::TxRaceProfLoopcut);
    cfg.passes.elide.enabled = false;
    core::RunResult txr = core::runProgram(app.program, cfg);
    EXPECT_GT(txr.stats.get("tx.abort.unknown"),
              txr.stats.get("tx.abort.conflict"));
    EXPECT_GT(txr.stats.get("tx.abort.unknown"),
              txr.stats.get("tx.abort.capacity"));
}

TEST(Workloads, FluidanimateConflictsDominateUnderThePaperInstrumentation)
{
    // Table 1's fingerprint: false sharing across stripe boundaries
    // aborts the per-stripe critical sections. It belongs to the
    // paper's instrumentation, so elision is off: by default the lock
    // rule proves the stripes' cells race-free and the critical
    // sections run bare, with no transaction to abort.
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("fluidanimate", params);
    core::RunConfig cfg =
        configFor(app, core::RunMode::TxRaceProfLoopcut);
    cfg.passes.elide.enabled = false;
    core::RunResult txr = core::runProgram(app.program, cfg);
    EXPECT_GT(txr.stats.get("tx.abort.conflict"),
              txr.stats.get("tx.abort.unknown"));
    EXPECT_GT(txr.stats.get("tx.abort.conflict"),
              txr.stats.get("tx.abort.capacity"));
}

TEST(Workloads, StreamclusterConflictsWithoutRacesBeyondPlanted)
{
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("streamcluster", params);
    core::RunResult txr = core::runProgram(
        app.program, configFor(app, core::RunMode::TxRaceProfLoopcut));
    // Conflict aborts clearly outnumber the planted races (15 against
    // 4 at seed 1)...
    EXPECT_GT(txr.stats.get("tx.abort.conflict"), 3 * app.plantedRaces);
    // ...but never more races than actually exist.
    EXPECT_LE(txr.races.count(), app.plantedRaces);
}

TEST(Workloads, ScaleGrowsWork)
{
    WorkloadParams small, big;
    small.calibrate = big.calibrate = false;
    big.scale = 3;
    AppModel a = makeApp("swaptions", small);
    AppModel b = makeApp("swaptions", big);
    core::RunResult ra = core::runProgram(
        a.program, configFor(a, core::RunMode::Native));
    core::RunResult rb = core::runProgram(
        b.program, configFor(b, core::RunMode::Native));
    EXPECT_GT(rb.totalCost, 2 * ra.totalCost);
}
