/**
 * @file
 * Chaos soak: run real workloads under the "chaos" fault scenario —
 * every pathology class at once, staggered and overlapping — with and
 * without the adaptive governor, and check the run-integrity
 * invariants hold throughout: clean termination, coherent cost
 * accounting, byte-identical determinism, no false positives, and
 * observable fault/governor activity.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/driver.hh"
#include "core/report_format.hh"
#include "fault/fault.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

core::RunConfig
chaosConfig(uint64_t seed, bool governor)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine.seed = seed;
    cfg.machine.faults = fault::makeScenario("chaos", 30'000);
    cfg.governor.enabled = governor;
    return cfg;
}

} // namespace

TEST(Chaos, SoakSurvivesEveryPathologyAtOnce)
{
    for (const std::string &name :
         {std::string("vips"), std::string("streamcluster"),
          std::string("dedup")}) {
        workloads::WorkloadParams params;
        params.nWorkers = 8;
        params.calibrate = false;
        workloads::AppModel app = workloads::makeApp(name, params);

        // Fault-free TSan reference for the no-false-positive check.
        core::RunConfig tsan_cfg;
        tsan_cfg.machine = app.machine;
        tsan_cfg.machine.seed = 7;
        tsan_cfg.mode = core::RunMode::TSan;
        core::RunResult tsan = core::runProgram(app.program, tsan_cfg);

        for (bool governor : {false, true}) {
            core::RunConfig cfg = chaosConfig(7, governor);
            cfg.machine = [&] {
                sim::MachineConfig m = app.machine;
                m.seed = 7;
                m.faults = fault::makeScenario("chaos", 30'000);
                return m;
            }();
            core::RunResult r = core::runProgram(app.program, cfg);

            EXPECT_TRUE(r.error.ok())
                << name << " gov=" << governor << ": "
                << sim::runErrorKindName(r.error.kind);
            uint64_t sum = 0;
            for (uint64_t v : r.buckets)
                sum += v;
            EXPECT_EQ(sum, r.totalCost) << name << " gov=" << governor;
            // The injected episodes actually fired and were recorded.
            EXPECT_GE(r.stats.get("fault.episodes_begun"), 1u)
                << name << " gov=" << governor;
            // Even under chaos, TxRace must not invent races.
            EXPECT_EQ(r.races.intersectCount(tsan.races),
                      r.races.count())
                << name << " gov=" << governor
                << ": reported a race TSan refutes";
        }
    }
}

TEST(Chaos, RunsAreByteIdenticalGivenSeedAndPlan)
{
    // The acceptance bar for determinism: identical (program, config
    // including FaultPlan and governor, seed) produce byte-identical
    // stats — fault injection and adaptation add no hidden
    // nondeterminism.
    workloads::WorkloadParams params;
    params.nWorkers = 8;
    params.calibrate = false;
    workloads::AppModel app = workloads::makeApp("vips", params);

    auto runOnce = [&](uint64_t seed) {
        core::RunConfig cfg = chaosConfig(seed, /*governor=*/true);
        sim::MachineConfig m = app.machine;
        m.seed = seed;
        m.faults = fault::makeScenario("chaos", 30'000);
        cfg.machine = m;
        return core::runProgram(app.program, cfg);
    };

    core::RunResult a = runOnce(21);
    core::RunResult b = runOnce(21);
    core::RunResult c = runOnce(22);

    EXPECT_EQ(a.totalCost, b.totalCost);
    EXPECT_EQ(a.buckets, b.buckets);
    ASSERT_EQ(a.stats.all(), b.stats.all());

    // Serialize both counter maps and compare the bytes, literally.
    auto dump = [](const core::RunResult &r) {
        std::ostringstream os;
        for (const auto &[k, v] : r.stats.all())
            os << k << '=' << v << '\n';
        return os.str();
    };
    EXPECT_EQ(dump(a), dump(b));
    EXPECT_NE(dump(a), dump(c));  // the seed does matter
}

TEST(Chaos, GovernorActivityIsObservable)
{
    // Under a storm the governor must leave an audit trail: counters
    // in the stats and events in the timeline.
    workloads::WorkloadParams params;
    params.nWorkers = 8;
    params.calibrate = false;
    workloads::AppModel app = workloads::makeApp("vips", params);

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = 3;
    cfg.machine.recordTimeline = true;
    cfg.machine.faults = fault::makeScenario("interrupt-storm", 20'000);
    cfg.governor.enabled = true;
    core::RunResult r = core::runProgram(app.program, cfg);

    EXPECT_TRUE(r.error.ok());
    EXPECT_GE(r.stats.get("txrace.gov.demotions"), 1u);
    EXPECT_GE(r.stats.get("txrace.gov.backoff_retries"), 1u);

    std::ostringstream os;
    core::printTimeline(r.telemetry.flight, cfg.machine.faults, os,
                        100000);
    std::string trace = os.str();
    EXPECT_NE(trace.find("fault-begin"), std::string::npos);
    EXPECT_NE(trace.find("fault-end"), std::string::npos);
    EXPECT_NE(trace.find("gov-demote"), std::string::npos);
}
