/**
 * @file
 * Unit tests for the adaptive fallback governor: the degradation
 * ladder, livelock escalation, bounded backoff retries, and the
 * re-probation machinery — exercised directly against a machine that
 * is never run, by driving the per-thread virtual clock by hand.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/budget.hh"
#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "core/governor.hh"
#include "core/policies.hh"
#include "fault/fault.hh"
#include "ir/builder.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using core::FallbackGovernor;
using Budget = core::BudgetController;
using Gov = core::FallbackGovernor;
using core::GovernorAction;
using core::GovernorConfig;
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

GovernorConfig
enabledConfig()
{
    GovernorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

/** A machine we only use as a clock + metrics registry + event
 *  sink. */
struct GovHarness
{
    ir::Program prog = tinyProgram();
    core::NativePolicy policy;
    sim::MachineConfig mcfg;
    Machine m;

    GovHarness() : m(prog, mcfg, policy) {}

    void tick(uint64_t cost) { m.context(0).myCost += cost; }

    /** Intern @p gov's counters in this machine's registry, as the
     *  owning policy does at run start. */
    void bind(FallbackGovernor &gov) { gov.bindMetrics(m.tel().registry); }

    /** Current value of counter @p name. */
    uint64_t
    count(const char *name) const
    {
        return m.tel().registry.valueByName(name);
    }
};

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

TEST(Governor, DisabledIsInert)
{
    GovHarness h;
    FallbackGovernor gov(GovernorConfig{}, 1);
    h.bind(gov);
    EXPECT_FALSE(gov.enabled());
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kFast);
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Unknown),
              GovernorAction::FallBack);
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Conflict),
              GovernorAction::FallBack);
    EXPECT_EQ(h.count("txrace.gov.demotions"), 0u);
}

TEST(Governor, CapacityAbortRateDemotesToShortTx)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    // kDemoteAbortsPerWindow aborts inside one window: demote. The
    // first rung for capacity pressure is shorter transactions.
    for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
        gov.onAbort(h.m, 0, Bucket::Capacity);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kShortTx);
    EXPECT_EQ(h.count("txrace.gov.demotions"), 1u);
    EXPECT_EQ(gov.demoteReasonFor(0), Bucket::Capacity);
    EXPECT_EQ(gov.loopcutDivisorFor(0), 2u);
}

TEST(Governor, UnknownAbortRateSkipsStraightToSlowStart)
{
    // Interrupts strike per step no matter how short the transaction
    // is, so the ShortTx rung is skipped for unknown-dominated storms.
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
        gov.onAbort(h.m, 0, Bucket::Unknown);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kSlowStart);
    EXPECT_EQ(gov.demoteReasonFor(0), Bucket::Unknown);
}

TEST(Governor, ShortTxRungSkippedWithoutLoopCuts)
{
    // When the program carries no loop-cut instrumentation there is
    // nothing to shorten, so even capacity pressure lands on
    // slow-start directly.
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);
    gov.setShortTxUseful(false);

    for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
        gov.onAbort(h.m, 0, Bucket::Capacity);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kSlowStart);
}

TEST(Governor, SparseAbortsNeverDemote)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    // One abort per window, forever: the window keeps rolling over.
    for (int i = 0; i < 50; ++i) {
        gov.onAbort(h.m, 0, Bucket::Capacity);
        h.tick(Gov::kWindowCost + 1);
    }
    EXPECT_EQ(gov.level(0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.demotions"), 0u);
}

TEST(Governor, LivelockEscalatesStraightToSlowStart)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    for (uint32_t i = 0; i < Gov::kLivelockK; ++i) {
        gov.onAbort(h.m, 0, Bucket::Conflict, /*primary=*/true);
        h.tick(Gov::kWindowCost + 1);  // keep the rate window quiet
    }
    EXPECT_EQ(gov.level(0), FallbackGovernor::kSlowStart);
    EXPECT_EQ(h.count("txrace.gov.livelock_escalations"), 1u);
    EXPECT_EQ(gov.demoteReasonFor(0), Bucket::Conflict);
}

TEST(Governor, CommitResetsTheLivelockCounter)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    for (int round = 0; round < 5; ++round) {
        for (uint32_t i = 0; i + 1 < Gov::kLivelockK; ++i) {
            gov.onAbort(h.m, 0, Bucket::Conflict, true);
            h.tick(Gov::kWindowCost + 1);
        }
        gov.onCommit(0);  // a commit interrupts the streak
    }
    EXPECT_EQ(gov.level(0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.livelock_escalations"), 0u);
}

TEST(Governor, CollateralConflictsDoNotCountTowardLivelock)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    // TxFail-broadcast victims (primary=false), spaced so the abort
    // window never trips either.
    for (int i = 0; i < 20; ++i) {
        gov.onAbort(h.m, 0, Bucket::Conflict, /*primary=*/false);
        h.tick(Gov::kWindowCost + 1);
    }
    EXPECT_EQ(gov.level(0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.livelock_escalations"), 0u);
}

TEST(Governor, UnknownAbortsGetBoundedBackoffRetries)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);
    static_assert(Gov::kMaxBackoffRetries == 1);

    uint64_t before = h.m.context(0).myCost;
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Unknown),
              GovernorAction::RetryBackoff);
    EXPECT_EQ(h.m.context(0).myCost - before, Gov::kBackoffCost);

    // A second abort in the SAME window is a storm, not a transient:
    // the in-place retry is refused.
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Unknown),
              GovernorAction::FallBack);

    // Quiet window again, but the region's one retry is spent:
    // surrender to the slow path.
    h.tick(Gov::kWindowCost + 1);
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Unknown),
              GovernorAction::FallBack);
    EXPECT_EQ(h.count("txrace.gov.backoff_retries"), 1u);

    // A commit refills the per-region budget.
    gov.onCommit(0);
    h.tick(Gov::kWindowCost + 1);
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Unknown),
              GovernorAction::RetryBackoff);
}

TEST(Governor, ConflictAbortsNeverRetryInPlace)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);
    // The TxFail protocol must run: both sides get re-checked.
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Conflict),
              GovernorAction::FallBack);
    EXPECT_EQ(gov.onAbort(h.m, 0, Bucket::Capacity),
              GovernorAction::FallBack);
}

TEST(Governor, ReprobationClimbsAndBacksOffExponentially)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    auto demoteOnce = [&] {
        for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
            gov.onAbort(h.m, 0, Bucket::Capacity);
    };
    demoteOnce();
    ASSERT_EQ(gov.level(0), FallbackGovernor::kShortTx);

    // Not yet cooled down: stays put.
    h.tick(Gov::kReprobateAfterCost - 1);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kShortTx);

    // Cooldown elapsed: probes one level up.
    h.tick(2);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.reprobations"), 1u);

    // The storm is still raging: the probe fails...
    demoteOnce();
    EXPECT_EQ(gov.level(0), FallbackGovernor::kShortTx);
    EXPECT_EQ(h.count("txrace.gov.failed_probes"), 1u);

    // ...so the next probe needs twice the cooldown.
    h.tick(Gov::kReprobateAfterCost + 1);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kShortTx);
    h.tick(Gov::kReprobateAfterCost);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.reprobations"), 2u);

    // This time the storm has passed: two calm windows clear the
    // backoff entirely.
    h.tick(2 * Gov::kWindowCost);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.probe_successes"), 1u);
}

TEST(Governor, SlowCostBudgetDemotesToSampling)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    // Reach slow-start via livelock.
    for (uint32_t i = 0; i < Gov::kLivelockK; ++i) {
        gov.onAbort(h.m, 0, Bucket::Conflict, true);
        h.tick(Gov::kWindowCost + 1);
    }
    ASSERT_EQ(gov.level(0), FallbackGovernor::kSlowStart);

    // The hardware is still aborting under us in this window...
    gov.onAbort(h.m, 0, Bucket::Capacity);
    // ...and the slow path is stalling too (per-check cost far above
    // the configured baseline): cornered, so sampled checking is the
    // only bounded option left.
    gov.onSlowCheckCost(h.m, 0, Gov::kDemoteSlowCostPerWindow - 1);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kSlowStart);
    gov.onSlowCheckCost(h.m, 0, 1);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kSampling);
    // The sampling rung keeps the original demotion attribution.
    EXPECT_EQ(gov.demoteReasonFor(0), Bucket::Conflict);
}

TEST(Governor, QuietStalledSlowPathProbesBackUp)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    // Reach slow-start via livelock.
    for (uint32_t i = 0; i < Gov::kLivelockK; ++i) {
        gov.onAbort(h.m, 0, Bucket::Conflict, true);
        h.tick(Gov::kWindowCost + 1);
    }
    ASSERT_EQ(gov.level(0), FallbackGovernor::kSlowStart);

    // A stalled check with the hardware silent all window: the
    // expensive part is the fallback itself, so the governor climbs
    // back up rather than sinking to sampling.
    h.tick(Gov::kWindowCost + 1);
    gov.onSlowCheckCost(h.m, 0, Gov::kDemoteSlowCostPerWindow);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kShortTx);
    EXPECT_EQ(h.count("txrace.gov.stall_promotions"), 1u);
    EXPECT_EQ(h.count("txrace.gov.demotions"), 1u);  // livelock only
}

TEST(Governor, SamplingDrawsAreDeterministicPerSeed)
{
    GovHarness h;
    GovernorConfig cfg = enabledConfig();
    FallbackGovernor a(cfg, 42), b(cfg, 42), c(cfg, 43);
    int same = 0, diffMatches = 0;
    for (int i = 0; i < 256; ++i) {
        bool da = a.sampleThisAccess(0);
        bool db = b.sampleThisAccess(0);
        bool dc = c.sampleThisAccess(0);
        same += da == db;
        diffMatches += da == dc;
    }
    EXPECT_EQ(same, 256);
    EXPECT_LT(diffMatches, 256);  // different seed, different stream
}

TEST(Governor, ProbeIntervalExactlyDoublesUnderPersistentStorm)
{
    // The full backoff staircase: every failed probe doubles the
    // cooldown until kMaxProbeBackoffExp caps it, and the cap holds.
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    auto demoteOnce = [&] {
        for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
            gov.onAbort(h.m, 0, Bucket::Capacity);
    };
    // Count the ticks until the next probe fires, advancing one cost
    // unit at a time so the observed delay is exact.
    auto ticksUntilProbe = [&] {
        uint64_t n = 0;
        uint64_t limit =
            2 * (Gov::kReprobateAfterCost << Gov::kMaxProbeBackoffExp);
        while (gov.levelForRegion(h.m, 0) != FallbackGovernor::kFast) {
            h.tick(1);
            ++n;
            if (n > limit)
                break;
        }
        return n;
    };

    demoteOnce();
    ASSERT_EQ(gov.level(0), FallbackGovernor::kShortTx);

    std::vector<uint64_t> delays;
    for (int probe = 0;
         probe < static_cast<int>(Gov::kMaxProbeBackoffExp) + 2;
         ++probe) {
        delays.push_back(ticksUntilProbe());
        demoteOnce();  // the storm is still raging: probe fails
        ASSERT_EQ(gov.level(0), FallbackGovernor::kShortTx);
    }
    std::vector<uint64_t> expected;
    for (int probe = 0;
         probe < static_cast<int>(Gov::kMaxProbeBackoffExp) + 2;
         ++probe) {
        uint32_t exp = std::min(static_cast<uint32_t>(probe),
                                Gov::kMaxProbeBackoffExp);
        expected.push_back(Gov::kReprobateAfterCost << exp);
    }
    EXPECT_EQ(delays, expected);  // 800, 1600, 3200, 6400, 6400
}

TEST(Governor, EscalationIsDeterministicAcrossSeeds)
{
    // The ladder reacts to abort sequences, not to the sampling seed:
    // ten governors with ten different seeds, driven by the same
    // abort trace, must walk the same level trajectory.
    GovernorConfig cfg = enabledConfig();
    std::vector<std::vector<uint32_t>> trajectories;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        GovHarness h;
        FallbackGovernor gov(cfg, seed);
        h.bind(gov);
        std::vector<uint32_t> levels;
        for (int i = 0; i < 40; ++i) {
            Bucket reason = i % 3 == 0 ? Bucket::Unknown
                          : i % 3 == 1 ? Bucket::Capacity
                                       : Bucket::Conflict;
            gov.onAbort(h.m, 0, reason, /*primary=*/i % 2 == 0);
            gov.onSlowCheckCost(h.m, 0, 40);
            if (i % 7 == 0)
                gov.onCommit(0);
            h.tick(13);
            levels.push_back(gov.levelForRegion(h.m, 0));
        }
        trajectories.push_back(std::move(levels));
    }
    for (size_t i = 1; i < trajectories.size(); ++i)
        EXPECT_EQ(trajectories[i], trajectories[0])
            << "seed " << i + 1 << " diverged";
}

TEST(Governor, BudgetPressureVetoesPromotions)
{
    // Monitor mode composes with the ladder: while the budget window
    // is past its soft admission level, re-probation is deferred (and
    // counted), and resumes once the pressure clears.
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);

    // No test step adds Base cost before the explicit window roll
    // below, so one budget window spans the veto phase.
    core::BudgetConfig bcfg;
    bcfg.enabled = true;
    bcfg.budgetPct = 5.0;
    core::BudgetController budget(bcfg, 1);
    budget.bindMetrics(h.m.tel().registry);
    budget.onRunStart(h.m);
    gov.setBudget(&budget);

    for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
        gov.onAbort(h.m, 0, Bucket::Capacity);
    ASSERT_EQ(gov.level(0), FallbackGovernor::kShortTx);

    // Refusing an over-budget check puts the window under pressure.
    uint64_t soft = static_cast<uint64_t>(
        bcfg.budgetPct / 100.0 * Budget::kWindowBase *
        Budget::kSoftFactor);
    EXPECT_FALSE(budget.admitCheck(h.m, 0, 1, soft + 1));
    ASSERT_TRUE(budget.underPressure());

    // Cooldown elapses, but the budget outranks the ladder: no
    // promotion, and the veto restarts the cooldown.
    h.tick(Gov::kReprobateAfterCost + 1);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kShortTx);
    EXPECT_EQ(h.count("txrace.gov.budget_vetoes"), 1u);
    EXPECT_EQ(h.count("txrace.gov.reprobations"), 0u);

    // Pressure clears with the next window roll (overhead stayed
    // below the soft level), and the deferred probe goes through.
    h.m.addCost(0, Budget::kWindowBase, sim::Bucket::Base);
    EXPECT_TRUE(budget.admitCheck(h.m, 0, 1, 0));
    EXPECT_FALSE(budget.underPressure());
    h.tick(Gov::kReprobateAfterCost + 1);
    EXPECT_EQ(gov.levelForRegion(h.m, 0), FallbackGovernor::kFast);
    EXPECT_EQ(h.count("txrace.gov.reprobations"), 1u);
}

TEST(Governor, ThreadsAreIndependent)
{
    GovHarness h;
    FallbackGovernor gov(enabledConfig(), 1);
    h.bind(gov);
    for (uint32_t i = 0; i < Gov::kDemoteAbortsPerWindow; ++i)
        gov.onAbort(h.m, 0, Bucket::Capacity);
    EXPECT_EQ(gov.level(0), FallbackGovernor::kShortTx);
    EXPECT_EQ(gov.level(1), FallbackGovernor::kFast);
    EXPECT_EQ(gov.loopcutDivisorFor(1), 1u);
}

TEST(Governor, GoldenChaosSoakDigest)
{
    // The CI chaos soak (vips, txrace-dyn, 8 workers, seed 7, chaos
    // at horizon 30000, governor on): its counters, race keys and
    // total cost are pinned, so any change to a governor constant
    // shows up here.
    workloads::WorkloadParams params;
    params.nWorkers = 8;
    workloads::AppModel app = workloads::makeApp("vips", params);
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = 7;
    cfg.machine.faults = fault::makeScenario("chaos", 30'000);
    cfg.governor.enabled = true;
    core::RunResult r = core::runProgram(app.program, cfg);
    ASSERT_TRUE(r.error.ok());
    EXPECT_EQ(r.totalCost, 6039450u);
    EXPECT_EQ(r.races.count(), 112u);
    EXPECT_EQ(resultDigest(app.program, r), 0x3a233eb3edd958b9ull);
}
