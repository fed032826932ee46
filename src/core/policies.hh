/**
 * @file
 * The execution policies: Native (baseline), TSan (always-on
 * happens-before detection, with optional sampling), and the TxRace
 * two-phase runtime.
 */

#ifndef TXRACE_CORE_POLICIES_HH
#define TXRACE_CORE_POLICIES_HH

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/budget.hh"
#include "core/governor.hh"
#include "core/loopcut.hh"
#include "detector/lockset.hh"
#include "core/runmode.hh"
#include "core/versionlog.hh"
#include "passes/passes.hh"
#include "sim/machine.hh"
#include "sim/policy.hh"
#include "support/rng.hh"

namespace txrace::core {

struct RunConfig;

/** No instrumentation at all: defines the overhead baseline. */
class NativePolicy : public sim::ExecutionPolicy
{
  public:
    bool observesAccesses() const override { return false; }
};

/**
 * Happens-before sync tracking shared by the TSan and TxRace
 * runtimes: every thread create/join, lock, condvar and barrier
 * updates the detector's vector clocks, and each tracked op charges
 * syncTrackCost to @p bucket (TSan's Check, TxRace's Txn). A subclass
 * that knows which clocks its checks can read narrows hb_, and an op
 * on any other object then does nothing, counted in untracked_ once
 * that is bound.
 */
class HbTrackingPolicy : public sim::ExecutionPolicy
{
  public:
    explicit HbTrackingPolicy(sim::Bucket bucket) : bucket_(bucket) {}

    void onThreadCreated(sim::Machine &m, Tid parent,
                         Tid child) override;
    void onThreadJoined(sim::Machine &m, Tid joiner,
                        Tid joined) override;
    void onSyncPerformed(sim::Machine &m, Tid t,
                         const ir::Instruction &ins) override;
    void onBarrierRelease(sim::Machine &m,
                          const std::vector<Tid> &parts) override;

  protected:
    /** The sync ops that update the detector and charge
     *  syncTrackCost (default: every one). */
    passes::HbRelevance hb_;
    /** Counts each syncTrackCost an untracked op did not charge. */
    telemetry::MetricId untracked_ = telemetry::kNoMetric;

  private:
    /** @p yes, after counting @p ops untracked ones when it is
     *  false. */
    bool tracked(sim::Machine &m, bool yes, uint64_t ops = 1);

    sim::Bucket bucket_;
};

/**
 * The TSan baseline (and its sampling variant): every instrumented
 * access is happens-before checked against shadow memory; sync ops
 * always maintain vector clocks. With sampleRate < 1, an access is
 * fully processed with that probability and otherwise only pays a
 * cheap sampling-branch cost — modeling LiteRace-style sampling the
 * paper compares against (§8.4).
 */
class TsanPolicy : public HbTrackingPolicy
{
  public:
    explicit TsanPolicy(double sample_rate = 1.0, uint64_t seed = 7);

    bool onMemAccess(sim::Machine &m, Tid t,
                     const ir::Instruction &ins, ir::Addr addr,
                     bool is_write) override;

  private:
    double sampleRate_;
    Rng rng_;
};

/**
 * Eraser-style lockset baseline (ablation; paper §9). Checks every
 * instrumented access against the candidate-lockset state machine.
 * Deliberately blind to condvars, barriers, and join edges beyond
 * initialization — the incompleteness the paper contrasts with
 * happens-before detection.
 */
class EraserPolicy : public sim::ExecutionPolicy
{
  public:
    void onRunEnd(sim::Machine &m) override;
    void onSyncPerformed(sim::Machine &m, Tid t,
                         const ir::Instruction &ins) override;
    bool onMemAccess(sim::Machine &m, Tid t,
                     const ir::Instruction &ins, ir::Addr addr,
                     bool is_write) override;

    const detector::LocksetDetector &lockset() const
    {
        return lockset_;
    }

  private:
    detector::LocksetDetector lockset_;
};

/**
 * RaceTM-style comparison policy (paper §9): hardware-extended HTM
 * with per-line debug bits reports races directly in the fast path —
 * no software slow path at all. Fast, but reports at cache-line
 * granularity, so false sharing produces false positives (the
 * problem TxRace's two-phase design exists to solve). The debug bits
 * are this policy's own per-thread map over the commodity HTM model.
 */
class RaceTmPolicy : public sim::ExecutionPolicy
{
  public:
    void onRunStart(sim::Machine &m) override;
    void onThreadExit(sim::Machine &m, Tid t) override;
    void onTxBegin(sim::Machine &m, Tid t,
                   const ir::Instruction &ins) override;
    void onTxEnd(sim::Machine &m, Tid t,
                 const ir::Instruction &ins) override;
    bool onMemAccess(sim::Machine &m, Tid t,
                     const ir::Instruction &ins, ir::Addr addr,
                     bool is_write) override;
    void onInterruptAbort(sim::Machine &m, Tid t) override;
    void onRetryAbort(sim::Machine &m, Tid t) override;

    const detector::RaceSet &races() const { return races_; }

  private:
    /** @p t's transaction ended (commit or abort): its debug bits
     *  clear with it. */
    void clearDebugBits(Tid t);

    /** @p t's transaction aborted: roll it back (wasted work charged
     *  to @p reason) and let the region re-run without a transaction,
     *  since RaceTM has no software path to fall back to. */
    void rerunBare(sim::Machine &m, Tid t, sim::Bucket reason);

    /** One line's debug bits: the open transaction's last store to
     *  the line if it wrote it, otherwise its last load. */
    struct LineBits
    {
        ir::InstrId instr = ir::kNoInstr;
        bool wrote = false;
    };

    detector::RaceSet races_;
    /** The debug bits: per thread, line -> LineBits of its open
     *  transaction. Written only in a transaction; cleared at every
     *  commit and abort. */
    std::vector<std::unordered_map<uint64_t, LineBits>> lineInstr_;
    /** Interned transaction-outcome counter ids (onRunStart). */
    struct Metrics
    {
        telemetry::MetricId txBegins, txCommitted;
        telemetry::MetricId abortConflict, abortCapacity, abortUnknown;
        telemetry::MetricId abortRetry;
    };
    Metrics met_{};
};

/**
 * The TxRace two-phase runtime (paper §3-§5).
 *
 * Fast path: synchronization-free regions run as transactions in the
 * HTM model; every transaction reads the TxFail flag at begin. Sync
 * operations keep updating vector clocks so later slow-path episodes
 * see correct happens-before order (§5, Fig. 6); with the elision
 * pipeline on, only those on objects that can order two checked
 * accesses do (passes::hbRelevance).
 *
 * Abort dispatch (§4.2):
 *  - conflict: the victim rolls back and publishes TxFail (next
 *    step), whose strong-isolation write aborts all in-flight
 *    transactions; everyone re-executes their region on the slow
 *    path under the software detector, which pinpoints races and
 *    filters false sharing. The winner's version-log window up to
 *    the conflicting access becomes owed: a winner that commits
 *    before TxFail lands (§6) replays it through the detector right
 *    after its commit, and one the broadcast aborts drops it, since
 *    its slow re-execution checks those accesses again (an in-place
 *    re-begin or the monitor budget replays it at the abort);
 *  - capacity: only this thread falls back to the slow path
 *    (concurrent fast+slow, Fig. 5), with loop-cut learning;
 *  - unknown (interrupts): same fallback as capacity;
 *  - retry-only: retry the transaction a bounded number of times;
 *  - debug/nested: cannot arise from our transactionalization.
 *
 * Optimizations (§4.3): single-threaded elision, small regions
 * pre-marked slow by the pass, and the loop-cut schemes.
 *
 * The per-thread protocol state (a pending TxFail publication, the
 * bounded retries, the loop-cut segment, the slow episode's bucket)
 * is this policy's own; the machine's ThreadContext keeps only the
 * path and cost fields it reads itself.
 */
class TxRacePolicy : public HbTrackingPolicy
{
  public:
    /**
     * The policy takes its whole configuration from the run's:
     * cfg.mode (a TxRace mode) picks the loop-cut scheme (Dyn starts
     * at LoopCutTable::kDynInitial), and governor and budget are
     * used as given. The governor and budget controller share one
     * sampling seed derived from cfg.machine.seed. cfg.slowpath == SlowPathKind::Replay keeps
     * the version log and runs the winner replay.
     *
     * @param preloaded profiled thresholds (Prof scheme); merged in
     */
    explicit TxRacePolicy(const RunConfig &cfg,
                          const LoopCutTable *preloaded = nullptr);

    /** Bound on retry-only re-executions of one transaction. */
    static constexpr uint32_t kMaxRetries = 4;

    void onRunStart(sim::Machine &m) override;
    void onRunEnd(sim::Machine &m) override;
    void onThreadExit(sim::Machine &m, Tid t) override;
    bool beforeStep(sim::Machine &m, Tid t) override;
    void onTxBegin(sim::Machine &m, Tid t,
                   const ir::Instruction &ins) override;
    void onTxEnd(sim::Machine &m, Tid t,
                 const ir::Instruction &ins) override;
    void onLoopCut(sim::Machine &m, Tid t,
                   const ir::Instruction &ins) override;
    bool onMemAccess(sim::Machine &m, Tid t,
                     const ir::Instruction &ins, ir::Addr addr,
                     bool is_write) override;
    /** Notes the Sync event, then tracks it like TSan. */
    void onSyncPerformed(sim::Machine &m, Tid t,
                         const ir::Instruction &ins) override;
    void onInterruptAbort(sim::Machine &m, Tid t) override;
    void onRetryAbort(sim::Machine &m, Tid t) override;

    /** Final thresholds (exported by profiling runs). */
    const LoopCutTable &loopcuts() const { return loopcuts_; }

    /** The adaptive fallback governor (read-only inspection). */
    const FallbackGovernor &governor() const { return governor_; }

    /** The monitor-mode budget controller (read-only inspection). */
    const BudgetController &budget() const { return budget_; }

    /** End-of-run budget summary (the driver copies it into
     *  RunResult while the machine that ran the policy is alive). */
    BudgetReport budgetReport() const { return budget_.report(); }

  private:
    /** The one transaction begin: xbegin, the TxFail read, and the
     *  TxBegin event carrying FrBegin flag @p begin_kind. The caller
     *  charges txBeginCost and has checked htm().canBegin(). */
    void beginTx(sim::Machine &m, Tid t,
                 uint8_t begin_kind = telemetry::FrBegin::Plain);

    /** Pay an xbegin at region or loop-cut marker @p ins and begin a
     *  fresh segment of loop @p segment_loop (kNoCutLoop: none) with
     *  its snapshot; past the hardware-thread limit the xbegin aborts
     *  and the region runs on the slow path instead. */
    void enterFastTx(sim::Machine &m, Tid t, const ir::Instruction &ins,
                     uint64_t segment_loop,
                     uint8_t begin_kind = telemetry::FrBegin::Plain);

    /** The one software check of a slow-path access: price it at
     *  m.checkCost(), ask the monitor budget, then charge the check to
     *  the episode's bucket and its site, feed the governor (or the
     *  sampled-check count) and the detector. A refused check pays
     *  only the one-unit gate branch, and ends the run if the budget
     *  is unsatisfiable. */
    void softwareCheck(sim::Machine &m, Tid t, const ir::Instruction &ins,
                       ir::Addr addr, bool is_write);

    /** The one transaction commit: commit @p t, count it, note the
     *  TxCommit event (@p site, FrCommit flag @p commit_kind), then
     *  replay the window @p t owes as @p t. */
    void commitTx(sim::Machine &m, Tid t, ir::InstrId site,
                  uint8_t commit_kind);

    /** @p winner's access at @p site aborted a victim: its version-log
     *  window so far (the last entry is that access when it is
     *  instrumented) is owed a replay at its commit. No-op without a
     *  version log, or when @p winner is not transactional. */
    void markWinnerWindowOwed(sim::Machine &m, Tid winner,
                              ir::InstrId site);

    /**
     * Winner replay: @p t replays its owed window @p w through the
     * detector, attributed to the conflicting site. Each entry is
     * checked as @p t (exact, because transactional regions are
     * synchronization-free — no clock moved since the access was
     * logged). @p t pays a flat setup plus one checkCost() per entry
     * under Bucket::Conflict. No-op when @p w is empty.
     */
    void replayOwedWindow(sim::Machine &m, Tid t,
                          const std::vector<VersionLogEntry> &w);

    /** @p t's transaction aborted: drop its version log. An owed
     *  window is dropped too when @p rechecked (the slow path re-runs
     *  and checks every access in it), and replayed first otherwise. */
    void settleAbortedWindow(sim::Machine &m, Tid t, bool rechecked);

    /** The one slow-path entry (see txrace_policy.cc). */
    void enterSlow(sim::Machine &m, Tid t, sim::Bucket reason,
                   uint32_t site, uint8_t why);

    /** Conflict-abort handling for a victim of a real data conflict:
     *  roll back, then publish TxFail next step. */
    void handleConflictVictim(sim::Machine &m, Tid v);

    /** Capacity abort of @p t's own transaction; @p site is the
     *  access instruction that overflowed (abort attribution for the
     *  persistent profile). */
    void handleSelfCapacity(sim::Machine &m, Tid t, ir::InstrId site);

    /** Drain flight windows into a forensics capture for a freshly
     *  detected static race. */
    void captureRaceForensics(sim::Machine &m, const detector::Race &r,
                              Tid current, Tid other);

    /** Walk @p t's loop stack for the innermost loop-cut loop;
     *  @p iters_in_tx receives that frame's in-transaction iteration
     *  count (governance evidence for the learning rule). */
    uint64_t innermostCutLoop(sim::Machine &m, Tid t,
                              uint64_t &iters_in_tx) const;

    /** TxRace's per-thread protocol state (§4.2). Lives outside the
     *  thread's rollback image, as the paper's runtime keeps it
     *  outside transactions, so a rollback keeps it. */
    struct ThreadTx
    {
        /** Reason bucket for the current/pending slow episode. */
        sim::Bucket slowReason = sim::Bucket::Base;
        /** The thread was conflict-aborted and must publish TxFail. */
        bool mustWriteTxFail = false;
        /** Steps the pending TxFail publication is still delayed
         *  (fault injection: TxFail-flag publication delay). */
        uint64_t txFailDelay = 0;
        /** Governor level-3 degradation: the region runs untransacted
         *  with sampled software checks instead of full slow-path
         *  checking. */
        bool sampleMode = false;
        /** Consecutive retry-aborts of the current region. */
        uint32_t retryCount = 0;
        /** Static loop id of the innermost loop-cut loop in the
         *  current tx (capacity attribution for the loop-cut
         *  optimizer); ir::kNoInstr when none. */
        uint32_t lastLoopCutId = ir::kNoInstr;
    };

    /** @p t's protocol state, grown on demand. */
    ThreadTx &state(Tid t);

    /** Track happens-before per object (the elision pipeline is on),
     *  not on every lock and condvar. */
    bool perObjectHb_;
    LoopCutTable loopcuts_;
    /** The winner replay's version log: the runtime's own stores
     *  inside each transaction. Present iff the run's slow path is
     *  SlowPathKind::Replay. */
    std::optional<VersionLog> vlog_;
    FallbackGovernor governor_;
    BudgetController budget_;
    /** Static loop ids that carry LoopCut instrumentation. A NoOpt
     *  build inserts no LoopCut, so NoOpt neither cuts nor learns. */
    std::set<uint64_t> cutLoops_;
    std::vector<ThreadTx> threads_;

    /** Interned ids of the policy's hot-path counters (onRunStart
     *  registers them in the machine's metric registry; updates are
     *  then one vector index instead of a string-map lookup). */
    struct Metrics
    {
        telemetry::MetricId txBegins, txCommitted;
        telemetry::MetricId abortConflict, abortCapacity;
        telemetry::MetricId abortUnknown, abortRetry;
        telemetry::MetricId smallSlowRegions, elided, bareRegions;
        telemetry::MetricId slowRegions;
        telemetry::MetricId hwlimitAborts, loopCuts;
        telemetry::MetricId artificialAborts;
        telemetry::MetricId txfailDelaySteps, txfailWrites;
        telemetry::MetricId retries, retryExhausted;
        telemetry::MetricId govSampledRegions, govForcedSlowRegions;
        telemetry::MetricId govSampleSkipped, govSampledChecks;
        telemetry::MetricId govTightenedCuts;
        /** Dynamic accesses that still carry instrumentation vs. those
         *  the static elision pipeline demoted — the "fraction of
         *  accesses monitored" statistic HardRace reports. */
        telemetry::MetricId accessInstrumented, accessUninstrumented;
        /** Winner replays performed, and the window length / replay
         *  cost distributions. */
        telemetry::MetricId windowReplays;
        telemetry::MetricId windowLen, windowReplayCost;
    };
    Metrics met_{};
};

} // namespace txrace::core

#endif // TXRACE_CORE_POLICIES_HH
