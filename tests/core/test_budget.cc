/**
 * @file
 * Unit tests for the monitor-mode budget controller: window
 * accounting against the machine's cost buckets, prospective
 * admission at the soft line, deepest-spender-first cuts, probe
 * backoff doubling, deterministic sampling draws, and the
 * unsatisfiable-budget declaration — driven against a machine that is
 * never run, by adding bucket cost by hand — and, on a real run, the
 * policy closing each window on time when admission calls are sparse.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/budget.hh"
#include "core/driver.hh"
#include "core/policies.hh"
#include "ir/builder.hh"

using namespace txrace;
using core::BudgetConfig;
using core::BudgetController;
using core::BudgetReport;
using sim::Bucket;
using sim::Machine;

namespace {

ir::Program
tinyProgram()
{
    ir::ProgramBuilder b;
    b.beginFunction("main");
    b.compute(1);
    b.endFunction();
    return b.build();
}

/** A machine used only as a pair of cost-bucket clocks. */
struct BudgetHarness
{
    ir::Program prog = tinyProgram();
    core::NativePolicy policy;
    sim::MachineConfig mcfg;
    Machine m;

    BudgetHarness() : m(prog, mcfg, policy) {}

    void base(uint64_t c) { m.addCost(0, c, Bucket::Base); }
    void overhead(uint64_t c) { m.addCost(0, c, Bucket::Check); }

    /** Intern @p b's counters in this machine's registry, as the
     *  owning policy does at run start. */
    void bind(BudgetController &b) { b.bindMetrics(m.tel().registry); }
};

constexpr double kPct = 5.0;
/** One window of native base time. */
constexpr uint64_t kWindow = BudgetController::kWindowBase;
/** Per-window hard budget and soft admission line, computed as the
 *  controller computes them (1000 and 600 at 5%). */
constexpr uint64_t kHard = static_cast<uint64_t>(
    kPct / 100.0 * static_cast<double>(kWindow));
constexpr uint64_t kSoft = static_cast<uint64_t>(
    kPct / 100.0 * static_cast<double>(kWindow) *
    BudgetController::kSoftFactor);
static_assert(kSoft > 20 && kSoft < kHard);

BudgetConfig
monitorConfig()
{
    BudgetConfig cfg;
    cfg.enabled = true;
    cfg.budgetPct = kPct;
    return cfg;
}

} // namespace

TEST(Budget, DisabledAdmitsEverything)
{
    BudgetHarness h;
    BudgetController b(BudgetConfig{}, 1);
    h.bind(b);
    EXPECT_FALSE(b.enabled());
    h.overhead(100000);
    EXPECT_TRUE(b.admitRegion(h.m, 0));
    EXPECT_TRUE(b.admitCheck(h.m, 0, 7, 100000));
    EXPECT_TRUE(b.report().windows.empty());
}

TEST(Budget, WindowsCloseOnBaseCrossingsOnly)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    // Overhead alone never closes a window: the clock is native time.
    h.overhead(10 * kHard);
    EXPECT_FALSE(b.admitRegion(h.m, 0, 0));  // way past soft, refused
    EXPECT_TRUE(b.report().windows.empty());

    // Two windows of base: both close, overhead lands in the first.
    h.base(2 * kWindow);
    b.admitRegion(h.m, 0, 0);
    BudgetReport r = b.report();
    ASSERT_EQ(r.windows.size(), 2u);
    EXPECT_EQ(r.windows[0].overhead, 10 * kHard);
    EXPECT_TRUE(r.windows[0].hardOver);
    EXPECT_EQ(r.windows[1].overhead, 0u);
    EXPECT_FALSE(r.windows[1].hardOver);
}

TEST(Budget, TrailingPartialWindowIsNotRecorded)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);
    h.base(kWindow - 1);
    h.overhead(10 * kWindow);
    b.admitRegion(h.m, 0, 0);
    EXPECT_TRUE(b.report().windows.empty());
}

TEST(Budget, AdmissionGatesAtTheSoftLine)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    h.overhead(kSoft - 1);  // below soft
    EXPECT_TRUE(b.admitCheck(h.m, 0, 1, 0));
    h.overhead(1);  // at soft
    EXPECT_FALSE(b.admitCheck(h.m, 0, 1, 0));
    EXPECT_FALSE(b.admitRegion(h.m, 0, 0));
    EXPECT_TRUE(b.underPressure());

    BudgetReport r = b.report();
    EXPECT_EQ(r.gatedChecks, 1u);
    EXPECT_EQ(r.gatedRegions, 1u);
}

TEST(Budget, AdmissionIsProspective)
{
    // The gate sees the price of the work it is about to admit — a
    // storm-inflated check cannot ride a nearly-spent window over the
    // line. The whole soft-to-hard gap stays reserved for overhead no
    // gate can refuse.
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    EXPECT_FALSE(b.admitCheck(h.m, 0, 1, kSoft + 1));  // 0 + it > soft
    EXPECT_TRUE(b.admitCheck(h.m, 0, 1, kSoft));
    h.overhead(20);
    const uint64_t left = kSoft - 20;
    EXPECT_FALSE(b.admitCheck(h.m, 0, 1, left + 1));  // 20 + it > soft
    EXPECT_TRUE(b.admitCheck(h.m, 0, 1, left));
    EXPECT_FALSE(b.admitRegion(h.m, 0, left + 1));
}

TEST(Budget, CutsDeepestSpenderFirstUntilExcessCovered)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    // Window overhead twice soft: the excess over soft is kSoft. Site
    // 5 spent 4/3 of it (it alone covers the excess), site 9 the
    // remaining 2/3: only 5 is cut.
    h.overhead(2 * kSoft);
    b.chargeSite(5, kSoft + kSoft / 3);
    b.chargeSite(9, kSoft - kSoft / 3);
    h.base(kWindow);
    b.admitRegion(h.m, 0, 0);

    EXPECT_EQ(b.siteShift(5), BudgetController::kCutShift);
    EXPECT_EQ(b.siteShift(9), 0u);
    BudgetReport r = b.report();
    EXPECT_EQ(r.siteCuts, 1u);
    ASSERT_EQ(r.siteShifts.size(), 1u);
    EXPECT_EQ(r.siteShifts[0].first, ir::InstrId{5});
}

TEST(Budget, RepeatedCutsClampAtTheFloor)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    for (int i = 0; i < 10; ++i) {
        h.overhead(2 * kSoft);
        b.chargeSite(5, 2 * kSoft);
        h.base(kWindow);
        b.admitRegion(h.m, 0, 0);
    }
    EXPECT_EQ(b.siteShift(5), BudgetController::kFloorShift);
}

TEST(Budget, ProbeIntervalDoublesPerFailureAndCaps)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    auto stormWindow = [&] {
        h.overhead(2 * kSoft);
        b.chargeSite(5, 2 * kSoft);
        h.base(kWindow);
        b.admitRegion(h.m, 0, 0);
    };
    auto cleanWindow = [&] {
        h.base(kWindow);
        b.admitRegion(h.m, 0, 0);
    };
    // Count the clean windows until the cut site is probed one step
    // back up (its shift drops below @p from).
    auto windowsUntilProbe = [&](uint32_t from) {
        int n = 0;
        while (b.siteShift(5) >= from) {
            cleanWindow();
            ++n;
            EXPECT_LE(n, 200) << "probe never came";
        }
        return n;
    };

    // Drive the site to the floor, then let every probe fail against
    // a persistent storm: the re-probe interval must double each time
    // until the backoff cap, and hold there.
    const uint32_t floor = BudgetController::kFloorShift;
    for (int i = 0; i < 3; ++i)
        stormWindow();
    ASSERT_EQ(b.siteShift(5), floor);

    std::vector<int> gaps;
    for (int probe = 0; probe < 6; ++probe) {
        gaps.push_back(windowsUntilProbe(floor));
        stormWindow();  // the probe window blows the budget: failure
        ASSERT_EQ(b.siteShift(5), floor);
    }
    const int base = static_cast<int>(BudgetController::kReprobeWindows);
    std::vector<int> expected;
    for (int probe = 0; probe < 6; ++probe) {
        uint32_t exp = std::min(static_cast<uint32_t>(probe),
                                BudgetController::kMaxProbeBackoffExp);
        expected.push_back(base << exp);
    }
    EXPECT_EQ(gaps, expected);  // 3, 6, 12, 24, 48, 48

    // Storm over: one clean probe resets the backoff entirely and the
    // next probe comes at the base interval again.
    windowsUntilProbe(floor);
    ASSERT_EQ(b.siteShift(5), floor - 1);
    cleanWindow();  // probe survives: backoff forgotten
    int gap = windowsUntilProbe(floor - 1);
    EXPECT_LE(gap, base + 1);
}

TEST(Budget, SamplingDrawsAreDeterministicPerSeed)
{
    BudgetHarness ha, hb, hc;
    BudgetConfig cfg = monitorConfig();
    BudgetController a(cfg, 42), b(cfg, 42), c(cfg, 43);

    // Cut site 5 once in each controller so draws actually happen.
    auto cutOnce = [](BudgetHarness &h, BudgetController &ctl) {
        h.overhead(2 * kSoft);
        ctl.chargeSite(5, 2 * kSoft);
        h.base(kWindow);
        ctl.admitRegion(h.m, 0, 0);
    };
    ha.bind(a);
    hb.bind(b);
    hc.bind(c);
    cutOnce(ha, a);
    cutOnce(hb, b);
    cutOnce(hc, c);

    int same = 0, diffMatches = 0, admitted = 0;
    for (int i = 0; i < 512; ++i) {
        bool da = a.admitCheck(ha.m, 0, 5, 0);
        bool db = b.admitCheck(hb.m, 0, 5, 0);
        bool dc = c.admitCheck(hc.m, 0, 5, 0);
        same += da == db;
        diffMatches += da == dc;
        admitted += da;
    }
    EXPECT_EQ(same, 512);
    EXPECT_LT(diffMatches, 512);  // different seed, different stream
    // shift = kCutShift (2): roughly one draw in four is admitted.
    static_assert(BudgetController::kCutShift == 2);
    EXPECT_GT(admitted, 512 / 8);
    EXPECT_LT(admitted, 512 / 2);
}

TEST(Budget, UnsatisfiableAfterConsecutiveHardRefusedWindows)
{
    BudgetHarness h;
    BudgetController b(monitorConfig(), 1);
    h.bind(b);
    b.onRunStart(h.m);

    // Un-gateable overhead alone blows the hard budget, window after
    // window, while the gate refuses all it can.
    for (uint32_t i = 0; i < BudgetController::kUnsatisfiableWindows;
         ++i) {
        SCOPED_TRACE(i);
        EXPECT_FALSE(b.unsatisfiable());
        h.overhead(2 * kHard);
        EXPECT_FALSE(b.admitCheck(h.m, 0, 1, 0));  // refused
        h.base(kWindow);
        b.admitRegion(h.m, 0, 0);
    }
    EXPECT_TRUE(b.unsatisfiable());
}

TEST(Budget, HardOverWithoutRefusalIsNotUnsatisfiable)
{
    // Overruns with the gate never consulted mid-window (the only
    // admit calls land right after a close, when the fresh window has
    // spent nothing) do not declare defeat: the controller was never
    // actually refusing work while the budget blew.
    BudgetHarness h;
    BudgetConfig cfg = monitorConfig();
    BudgetController b(cfg, 1);
    h.bind(b);
    b.onRunStart(h.m);

    constexpr uint32_t kStreak = BudgetController::kUnsatisfiableWindows;
    for (uint32_t i = 0; i < 3 * kStreak; ++i) {
        h.overhead(2 * kHard);
        h.base(kWindow);
        b.admitRegion(h.m, 0, 0);  // closes the window, then admits
    }
    BudgetReport r = b.report();
    ASSERT_GE(r.windows.size(), kStreak);
    for (const core::BudgetWindow &w : r.windows)
        EXPECT_TRUE(w.hardOver);
    EXPECT_FALSE(b.unsatisfiable());

    // Refused-but-hard-over windows broken up by clean ones never
    // accumulate the consecutive streak either.
    BudgetHarness h2;
    BudgetController b2(cfg, 1);
    h2.bind(b2);
    b2.onRunStart(h2.m);
    for (uint32_t i = 0; i < 3 * kStreak; ++i) {
        bool storm = i % 2 == 0;
        if (storm) {
            h2.overhead(2 * kHard);
            b2.admitCheck(h2.m, 0, 1, 0);
        }
        h2.base(kWindow);
        b2.admitRegion(h2.m, 0, 0);
    }
    EXPECT_FALSE(b2.unsatisfiable());
}

TEST(Budget, SparseAdmissionsStillBookEachWindowItsOwnOverhead)
{
    // Workers that only lock, compute and unlock have no instrumented
    // access, so no transaction and no check: nothing asks the budget
    // for admission until main's one slow-path check after the join.
    // Their sync tracking is still overhead in every window. Rolled
    // only from the admission calls, every window would close at that
    // last check and the first would be booked the whole run's
    // tracking; rolled from the sync and access hooks, each window
    // books its own share. The lock orders no two checked accesses,
    // so the elided build would not track it at all: the paper
    // pipeline (no elision) tracks every lock.
    ir::ProgramBuilder b;
    ir::Addr x = b.alloc("x", 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(200, [&] {
        b.lock(0);
        b.compute(400);
        b.unlock(0);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.store(ir::AddrExpr::absolute(x), "after join");
    b.endFunction();
    ir::Program p = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.budget = monitorConfig();
    cfg.passes.elide.enabled = false;
    core::RunResult r = core::runProgram(p, cfg);
    ASSERT_TRUE(r.error.ok());
    ASSERT_EQ(r.budget.gatedRegions + r.budget.gatedChecks, 0u);

    const uint64_t base = r.buckets[static_cast<size_t>(Bucket::Base)];
    ASSERT_GE(base / kWindow, 4u);
    ASSERT_EQ(r.budget.windows.size(), base / kWindow);
    // A window holds about kWindow / 400 lock/unlock pairs; windows
    // differ by at most a few sync ops' tracking at their edges.
    uint64_t lo = ~0ull, hi = 0;
    for (const core::BudgetWindow &w : r.budget.windows) {
        lo = std::min(lo, w.overhead);
        hi = std::max(hi, w.overhead);
        EXPECT_FALSE(w.hardOver);
    }
    EXPECT_GT(lo, 0u);
    EXPECT_LE(hi - lo, 8 * sim::CostModel::syncTrackCost)
        << "windows booked " << lo << " to " << hi;
}
