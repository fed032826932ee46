/**
 * @file
 * Monitor-mode acceptance: the sustained-server soak behind
 * `txrace_run --monitor`. The apache-stream scenario serves
 * keep-alive request streams across worker-pool generations while
 * adjacent workers race on per-slot connection-table entries; under a
 * hard 5% budget the controller must hold EVERY window — clean and
 * under fault storms — while keeping recall high, inventing no races,
 * reopening the gates after storms, and staying byte-deterministic.
 * A budget no amount of shedding can satisfy must end the run with a
 * structured error, not thrash.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "fault/fault.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

constexpr double kBudgetPct = 5.0;

workloads::AppModel
streamApp(uint32_t workers = 4)
{
    workloads::WorkloadParams params;
    params.nWorkers = workers;
    params.calibrate = true;  // pin the paper-row overhead regime
    return workloads::makeApp("apache-stream", params);
}

core::RunConfig
monitorConfig(const workloads::AppModel &app, uint64_t seed,
              double budget_pct = kBudgetPct)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = seed;
    cfg.governor.enabled = true;
    cfg.budget.enabled = true;
    cfg.budget.budgetPct = budget_pct;
    return cfg;
}

std::set<std::string>
detectedLabels(const workloads::AppModel &app,
               const core::RunResult &r)
{
    std::set<std::string> out;
    for (const auto &[sig, race] :
         core::fingerprintedRaces(app.program, r.races))
        out.insert(sig.label);
    return out;
}

std::set<std::string>
truthLabels(const workloads::AppModel &app)
{
    std::set<std::string> out;
    for (const workloads::RaceLabel &label : app.groundTruth)
        out.insert(core::raceLabelKey(label.a, label.b));
    return out;
}

/** Budget holds in every complete window; detected ⊆ ground truth
 *  (zero false positives); recall ≥ 80% of the planted families. */
void
checkAcceptance(const workloads::AppModel &app,
                const core::RunResult &r, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_TRUE(r.error.ok()) << sim::runErrorKindName(r.error.kind);
    ASSERT_TRUE(r.budget.enabled);
    ASSERT_GE(r.budget.windows.size(), 40u);

    const uint64_t allowed = static_cast<uint64_t>(
        r.budget.budgetPct / 100.0 *
        static_cast<double>(r.budget.windowBase));
    for (size_t i = 0; i < r.budget.windows.size(); ++i) {
        const core::BudgetWindow &w = r.budget.windows[i];
        EXPECT_LE(w.overhead, allowed) << "window " << i;
        EXPECT_FALSE(w.hardOver) << "window " << i;
    }

    std::set<std::string> truth = truthLabels(app);
    std::set<std::string> found = detectedLabels(app, r);
    for (const std::string &label : found)
        EXPECT_TRUE(truth.count(label))
            << "false positive: " << label;
    EXPECT_GE(static_cast<double>(found.size()),
              0.8 * static_cast<double>(truth.size()))
        << "recall " << found.size() << "/" << truth.size();
}

/** FNV digest of everything a run reports: every counter, every race
 *  fingerprint key, and the total cost. */
uint64_t
resultDigest(const ir::Program &prog, const core::RunResult &r)
{
    std::string s;
    for (const auto &[name, value] : r.stats.all())
        s += name + "=" + std::to_string(value) + "\n";
    for (const auto &[sig, race] : core::fingerprintedRaces(prog, r.races))
        s += sig.key + "\n";
    s += std::to_string(r.totalCost);
    return core::fnv1a64(s);
}

} // namespace

TEST(Monitor, TSanFindsExactlyThePlantedStreamFamilies)
{
    // Ground-truth exactness first: the HB oracle on the soak
    // scenario reports the 24 planted connection-table families, all
    // of them, and nothing else.
    workloads::AppModel app = streamApp();
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TSan;
    cfg.machine = app.machine;
    cfg.machine.seed = 1;
    core::RunResult tsan = core::runProgram(app.program, cfg);
    ASSERT_TRUE(tsan.error.ok());
    EXPECT_EQ(detectedLabels(app, tsan), truthLabels(app));
    EXPECT_EQ(app.groundTruth.size(), 24u);
}

TEST(Monitor, BudgetHoldsEveryWindowOnTheCleanSoak)
{
    workloads::AppModel app = streamApp();
    core::RunResult r =
        core::runProgram(app.program, monitorConfig(app, 1));
    checkAcceptance(app, r, "clean soak");

    // At 2% the soak needs the adaptive machinery and it engages:
    // sites were cut, sampling skipped work, and probes climbed back
    // up — and every window still holds. Eight workers: checks come
    // in per-slot-family bursts, and with four workers a cut site is
    // probed back to full rate before its family's next burst, so no
    // check ever meets a sampling draw.
    workloads::AppModel wide = streamApp(8);
    core::RunResult tight =
        core::runProgram(wide.program, monitorConfig(wide, 1, 2.0));
    checkAcceptance(wide, tight, "clean soak at 2%");
    EXPECT_GT(tight.budget.siteCuts, 0u);
    EXPECT_GT(tight.budget.sampledSkips, 0u);
    EXPECT_GT(tight.budget.siteProbes, 0u);
}

TEST(Monitor, BudgetHoldsUnderFaultStorms)
{
    workloads::AppModel app = streamApp();
    for (const char *scenario : {"slowpath-stall", "chaos"}) {
        core::RunConfig cfg = monitorConfig(app, 1);
        // Horizon well inside the ~40k-step run so every episode ends
        // with plenty of run left to observe the recovery.
        cfg.machine.faults = fault::makeScenario(scenario, 30'000);
        core::RunResult r = core::runProgram(app.program, cfg);
        checkAcceptance(app, r, scenario);

        // Post-storm recovery within bounded windows: by the final
        // quarter of the run the admission gates have reopened — the
        // budget is no longer refusing most of what it sees.
        const auto &w = r.budget.windows;
        size_t tail = w.size() / 4;
        size_t open = 0;
        for (size_t i = w.size() - tail; i < w.size(); ++i)
            open += w[i].refused ? 0 : 1;
        EXPECT_GE(open * 2, tail)
            << scenario << ": gates still mostly closed at run end";
    }
}

TEST(Monitor, SamplingTradesRecallNeverPrecision)
{
    // Even at a budget tight enough to gate most checking, whatever
    // the monitor still reports must be real: detection under
    // pressure is a subset of the fault-free HB oracle.
    workloads::AppModel app = streamApp();

    core::RunConfig tsan_cfg;
    tsan_cfg.mode = core::RunMode::TSan;
    tsan_cfg.machine = app.machine;
    tsan_cfg.machine.seed = 3;
    core::RunResult tsan = core::runProgram(app.program, tsan_cfg);

    for (double pct : {2.0, 5.0, 10.0}) {
        core::RunConfig cfg = monitorConfig(app, 3, pct);
        core::RunResult r = core::runProgram(app.program, cfg);
        EXPECT_EQ(r.races.intersectCount(tsan.races), r.races.count())
            << "budget " << pct << "%: reported a race TSan refutes";
    }
}

TEST(Monitor, RunsAreByteIdenticalGivenSeedAndBudget)
{
    workloads::AppModel app = streamApp();
    auto runOnce = [&](uint64_t seed) {
        return core::runProgram(app.program, monitorConfig(app, seed));
    };
    core::RunResult a = runOnce(7);
    core::RunResult b = runOnce(7);
    core::RunResult c = runOnce(8);

    ASSERT_EQ(a.budget.windows.size(), b.budget.windows.size());
    for (size_t i = 0; i < a.budget.windows.size(); ++i) {
        EXPECT_EQ(a.budget.windows[i].overhead,
                  b.budget.windows[i].overhead) << "window " << i;
    }
    EXPECT_EQ(a.budget.siteShifts, b.budget.siteShifts);
    EXPECT_EQ(a.budget.sampledSkips, b.budget.sampledSkips);

    auto dump = [](const core::RunResult &r) {
        std::ostringstream os;
        for (const auto &[k, v] : r.stats.all())
            os << k << '=' << v << '\n';
        return os.str();
    };
    EXPECT_EQ(dump(a), dump(b));
    EXPECT_NE(dump(a), dump(c));  // the seed does matter
}

TEST(Monitor, UnsatisfiableBudgetEndsWithAStructuredError)
{
    // At 0.3% the un-gateable floor (sync tracking, gate branches)
    // alone exceeds the hard line: after enough consecutive blown
    // windows the run must end with RunError::Kind::Budget instead of
    // thrashing to completion.
    workloads::AppModel app = streamApp();
    core::RunResult r =
        core::runProgram(app.program, monitorConfig(app, 1, 0.3));
    EXPECT_EQ(r.error.kind, sim::RunError::Kind::Budget);
}

TEST(Monitor, DisabledBudgetLeavesTheRunUntouched)
{
    // --monitor off: the controller must be fully inert — identical
    // stats to a run that never constructed it.
    workloads::AppModel app = streamApp();
    core::RunConfig cfg = monitorConfig(app, 5);
    cfg.budget.enabled = false;
    cfg.governor.enabled = false;
    core::RunConfig plain;
    plain.mode = core::RunMode::TxRaceProfLoopcut;
    plain.machine = app.machine;
    plain.machine.seed = 5;

    core::RunResult a = core::runProgram(app.program, cfg);
    core::RunResult b = core::runProgram(app.program, plain);
    EXPECT_FALSE(a.budget.enabled);
    EXPECT_TRUE(a.budget.windows.empty());
    EXPECT_EQ(a.totalCost, b.totalCost);
    EXPECT_EQ(a.races.count(), b.races.count());
}

TEST(Monitor, GoldenStormDigest)
{
    // The CI monitor storm (apache-stream, 5%, slowpath-stall): its
    // counters, race keys and total cost are pinned, so any change to
    // a monitor or governor constant shows up here.
    workloads::AppModel app = streamApp();
    core::RunConfig cfg = monitorConfig(app, 1);
    cfg.machine.faults = fault::makeScenario("slowpath-stall", 30'000);
    core::RunResult r = core::runProgram(app.program, cfg);
    ASSERT_TRUE(r.error.ok());
    EXPECT_EQ(r.totalCost, 1811420u);
    EXPECT_EQ(r.budget.windows.size(), 89u);
    EXPECT_EQ(resultDigest(app.program, r), 0xe16c63c614ba9e14ull);
}
