/**
 * @file
 * The adaptive fallback governor: graceful degradation for the TxRace
 * runtime when the HTM misbehaves.
 *
 * The baseline policy answers every non-retry abort with a slow-path
 * episode. Under a sustained pathology (interrupt storm, capacity
 * cliff, conflict ping-pong — the very storms §8 measures) that
 * silently degenerates into always-on TSan *plus* the wasted work of
 * endlessly re-attempted transactions. The governor bounds that
 * damage with a per-thread degradation ladder:
 *
 *   level 0  Fast        normal two-phase operation
 *   level 1  ShortTx     loop-cut thresholds halved: shorter
 *                        transactions lose less work per abort
 *   level 2  SlowStart   regions start directly on the slow path —
 *                        full detection, but no xbegin/abort/rollback
 *                        churn while the storm lasts
 *   level 3  Sampling    regions run untransacted with sampled
 *                        software checks: bounded cost even when the
 *                        slow path itself is pathologically slow
 *
 * Demotion is driven by an abort-rate window (aborts per virtual-time
 * window) and, at level 2, by a slow-path cost budget. A livelock
 * detector escalates immediately when the same thread's regions
 * conflict-abort K times in a row (the ping-pong case). Re-probation
 * periodically promotes one level; failed probes back off
 * exponentially so a persistent storm is probed ever more rarely.
 *
 * All transitions are counted in the machine's metrics registry and
 * recorded in the event stream, so `--trace` shows the ladder in
 * action.
 */

#ifndef TXRACE_CORE_GOVERNOR_HH
#define TXRACE_CORE_GOVERNOR_HH

#include <cstdint>
#include <vector>

#include "sim/machine.hh"
#include "support/rng.hh"

namespace txrace::core {

class BudgetController;

/** Configuration of the degradation ladder. Its tunables are the
 *  FallbackGovernor::k* constants. */
struct GovernorConfig
{
    /** Master switch; disabled reproduces the paper's behaviour. */
    bool enabled = false;
};

/** What the policy should do with an abort the governor examined. */
enum class GovernorAction : uint8_t {
    FallBack,      ///< baseline behaviour: slow-path episode
    RetryBackoff,  ///< re-execute in place after a backoff stall
};

/**
 * Per-thread adaptive state machine. Owned by a TxRacePolicy; all
 * state derives from observed aborts and virtual time, so runs stay
 * deterministic.
 */
class FallbackGovernor
{
  public:
    /** Ladder levels (order is the degradation direction). */
    enum Level : uint32_t {
        kFast = 0,
        kShortTx = 1,
        kSlowStart = 2,
        kSampling = 3,
    };

    // Tunables of the degradation ladder.
    /** In-place re-executions of a region before falling back. */
    static constexpr uint32_t kMaxBackoffRetries = 1;
    /** Stall cost of a backoff retry. */
    static constexpr uint64_t kBackoffCost = 16;
    /** Consecutive conflict-aborted regions that escalate
     *  (livelock detection). */
    static constexpr uint32_t kLivelockK = 4;
    /** Virtual-time window (cost units) for the abort counter. */
    static constexpr uint64_t kWindowCost = 600;
    /** Aborts within one window that trigger a demotion. */
    static constexpr uint32_t kDemoteAbortsPerWindow = 3;
    /** Slow-path check cost within one window that demotes a
     *  level-2 thread to sampling (level 3) -- but only when the
     *  per-check cost is actually inflated (see onSlowCheckCost). */
    static constexpr uint64_t kDemoteSlowCostPerWindow = 500;
    /** Virtual time at a degraded level before probing one level up. */
    static constexpr uint64_t kReprobateAfterCost = 800;
    /** Cap on the exponential probe backoff (doublings). */
    static constexpr uint32_t kMaxProbeBackoffExp = 3;
    /** Fraction of accesses software-checked at level 3. */
    static constexpr double kSampleRate = 0.25;

    FallbackGovernor(const GovernorConfig &cfg, uint64_t seed)
        : enabled_(cfg.enabled), seed_(seed) {}

    bool enabled() const { return enabled_; }

    /** The policy reports whether the program carries loop-cut
     *  instrumentation at all. Without it the ShortTx rung cannot
     *  shorten anything, so demotions skip straight past it instead
     *  of wasting a window on a no-op level. */
    void setShortTxUseful(bool useful) { shortTxUseful_ = useful; }

    /** Compose with monitor mode: while @p budget reports overhead
     *  pressure, re-probation promotions are vetoed (counted as
     *  txrace.gov.budget_vetoes) — the hard budget outranks the
     *  ladder's optimism. Null (the default) restores pure ladder
     *  behaviour. */
    void setBudget(const BudgetController *budget) { budget_ = budget; }

    /** Intern the governor's counters in @p reg. Must precede the
     *  first transition: the owning policy calls it at run start,
     *  standalone tests right after construction. */
    void bindMetrics(telemetry::MetricRegistry &reg);

    /**
     * Called at every region entry (TxBegin). Performs due
     * re-probation and returns the level the region should run at.
     */
    uint32_t levelForRegion(sim::Machine &m, Tid t);

    /** Current level without side effects. */
    uint32_t level(Tid t) const;

    /**
     * An abort of kind @p reason hit thread @p t (all causes feed the
     * abort-rate window). Returns what to do: retry in place with a
     * backoff stall (the governor already charged it) or fall back to
     * the slow path. Conflict aborts also feed the livelock detector
     * and never retry in place (the TxFail protocol must run);
     * @p primary distinguishes the victim of a real data conflict
     * from collateral TxFail-broadcast aborts, which do not count
     * toward livelock.
     */
    GovernorAction onAbort(sim::Machine &m, Tid t, sim::Bucket reason,
                           bool primary = true);

    /** A transaction of @p t committed (resets livelock/backoff). */
    void onCommit(Tid t);

    /** Slow-path check cost charged to @p t (level-2 budget). */
    void onSlowCheckCost(sim::Machine &m, Tid t, uint64_t cost);

    /** Deterministic Bernoulli draw for level-3 sampling. */
    bool sampleThisAccess(Tid t);

    /** Divisor applied to loop-cut thresholds at level >= ShortTx. */
    uint64_t loopcutDivisorFor(Tid t) const;

    /** Abort bucket that drove @p t's current demotion (cost
     *  attribution of forced-slow regions). */
    sim::Bucket demoteReasonFor(Tid t) const;

  private:
    struct ThreadGov
    {
        uint32_t level = kFast;
        /** Virtual-time start of the current abort-rate window. */
        uint64_t windowStart = 0;
        uint32_t windowAborts = 0;
        uint64_t windowSlowCost = 0;
        uint64_t windowSlowChecks = 0;
        /** Virtual time of the last level transition. */
        uint64_t lastTransition = 0;
        /** Consecutive conflict-aborted regions (livelock). */
        uint32_t consecConflicts = 0;
        /** Backoff retries spent on the current region. */
        uint32_t backoffsUsed = 0;
        /** Failed probes since the last stable stretch. */
        uint32_t probeBackoffExp = 0;
        /** A probe promotion is being evaluated. */
        bool probing = false;
        /** Abort bucket that caused the current demotion. */
        sim::Bucket demoteReason = sim::Bucket::Unknown;
        Rng sampleRng{0};
        bool initialized = false;

        /** Open a fresh abort-rate window at virtual time @p n. */
        void
        restartWindow(uint64_t n)
        {
            windowStart = n;
            windowAborts = 0;
            windowSlowCost = 0;
            windowSlowChecks = 0;
        }
    };

    ThreadGov &state(Tid t);
    /** Thread-time clock the windows are measured in. */
    uint64_t now(sim::Machine &m, Tid t) const;
    /** Demote @p t to level @p to; @p why is a FrControl demotion. */
    void demote(sim::Machine &m, Tid t, uint32_t to, uint8_t why,
                sim::Bucket reason);
    /** Bump a transition counter (bindMetrics() came first). */
    void count(telemetry::MetricId id) { reg_->add(id); }

    bool enabled_;
    uint64_t seed_;
    bool shortTxUseful_ = true;
    const BudgetController *budget_ = nullptr;
    std::vector<ThreadGov> threads_;

    /** Interned transition-counter ids (set by bindMetrics()). */
    struct Metrics
    {
        telemetry::MetricId failedProbes, demotions, probeSuccesses;
        telemetry::MetricId reprobations, livelockEscalations;
        telemetry::MetricId backoffRetries, stallPromotions;
        telemetry::MetricId budgetVetoes;
    };
    telemetry::MetricRegistry *reg_ = nullptr;
    Metrics met_{};
};

} // namespace txrace::core

#endif // TXRACE_CORE_GOVERNOR_HH
