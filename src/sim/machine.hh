/**
 * @file
 * The simulated multithreaded machine: a seeded-interleaving
 * interpreter for mini-IR programs, with an attached HTM model,
 * happens-before detector, synchronization tables, virtual-time cost
 * accounting, and timer-interrupt injection.
 *
 * One Machine executes one program under one ExecutionPolicy and is
 * then discarded. Runs are a pure function of (program, config,
 * policy), which the determinism tests assert.
 */

#ifndef TXRACE_SIM_MACHINE_HH
#define TXRACE_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "detector/fasttrack.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "mem/memory.hh"
#include "htm/htm.hh"
#include "ir/program.hh"
#include "sim/context.hh"
#include "sim/costmodel.hh"
#include "sim/decode.hh"
#include "sim/policy.hh"
#include "support/log.hh"
#include "support/rng.hh"
#include "sync/primitives.hh"
#include "telemetry/telemetry.hh"

namespace txrace::sim {

/** Machine-level configuration. */
struct MachineConfig
{
    /** Master seed: scheduling, interrupts, per-thread streams. */
    uint64_t seed = 1;
    /** Per-step probability a transactional thread takes an interrupt
     *  (OS context switches etc. — the source of unknown aborts). */
    double interruptPerStep = 1.0 / 20000.0;
    /** Record the run-wide event timeline the `--trace` text view and
     *  the `--trace-json` Chrome trace render from. Observe-only. */
    bool recordTimeline = false;
    /** Enable the per-thread flight-recorder rings (forensics captures
     *  on race reports and structured run errors). Observe-only: never
     *  changes scheduling, cost, or detection. No-op in builds made
     *  with -DTXRACE_FLIGHTREC=OFF. */
    bool recordFlight = false;
    /** Hard cap on scheduler steps (runaway guard). Exceeding it ends
     *  the run with RunError::Kind::Truncated, not process death. */
    uint64_t maxSteps = 500'000'000;
    /** Scheduled pathology episodes injected from the scheduler loop
     *  (empty = no injection). Part of the run's identity: identical
     *  (program, config incl. plan, seed) runs are byte-identical. */
    fault::FaultPlan faults;

    CostModel cost;
    htm::HtmConfig htm;
    detector::DetectorConfig det;
};

/** One unfinished thread's state at an abnormal run end. */
struct BlockedThreadInfo
{
    Tid tid = 0;
    ThreadState state = ThreadState::Runnable;
    /** Function name and pc of the instruction it is parked on. */
    std::string where;
};

/**
 * Structured outcome of a run that could not finish normally, carried
 * in the result instead of killing the process — harnesses, the chaos
 * soak test, and production supervisors assert on it.
 */
struct RunError
{
    enum class Kind : uint8_t {
        None,       ///< run completed normally
        Deadlock,   ///< no runnable thread but live_ > 0
        Truncated,  ///< maxSteps runaway guard tripped
        Budget,     ///< monitor overhead budget unsatisfiable
        BadAccess,  ///< access outside the program's address space
    };

    Kind kind = Kind::None;
    /** Scheduler steps actually executed. */
    uint64_t stepsExecuted = 0;
    /** Unfinished threads and what they were blocked on. */
    std::vector<BlockedThreadInfo> threads;

    bool ok() const { return kind == Kind::None; }
    bool truncated() const { return kind == Kind::Truncated; }
};

/** Display name of a run-error kind. */
const char *runErrorKindName(RunError::Kind kind);

/**
 * The machine. Policies receive a reference and use the service
 * accessors (htm(), det(), context(), addCost(), rollback()...).
 */
class Machine
{
  public:
    /** Address every transaction reads at begin and conflict-aborted
     *  threads write: the paper's TxFail flag. Lives below the
     *  builder's allocation floor so no program data shares its line. */
    static constexpr ir::Addr kTxFailAddr = 8;

    /** Physical cores (the paper's testbed: quad-core i7-4790). */
    static constexpr uint32_t kCores = 4;

    /** Interrupt multiplier once runnable threads exceed kCores
     *  (hyperthread contention; drives the paper's 8-thread spike in
     *  unknown aborts, Figure 8). */
    static constexpr double kOversubInterruptFactor = 8.0;

    /**
     * Scheduler quantum: how many decoded ops a picked thread may run
     * back-to-back before the scheduler re-picks. Forced preemption
     * points end a quantum early regardless: sync operations,
     * transaction boundaries, any memory access while a transaction
     * is in flight (so transactional phases still interleave per op
     * and conflict-based detection sees the same granularity as
     * per-step scheduling), thread create/join, and fault-episode
     * edges.
     */
    static constexpr uint32_t kSchedQuantum = 32;

    Machine(const ir::Program &prog, const MachineConfig &cfg,
            ExecutionPolicy &policy);

    /**
     * Execute until every thread finished, a deadlock is detected, or
     * the maxSteps guard trips. Abnormal ends are reported in the
     * returned RunError (also available via error()) — the process
     * survives so harnesses can inspect the partial result. A Machine
     * runs once: a second call panics.
     */
    const RunError &run();

    /** Outcome of the last run() (None before/after a clean run). */
    const RunError &error() const { return error_; }

    /** @name Services for policies */
    /** @{ */
    htm::HtmEngine &htm() { return htm_; }
    /** Committed data memory. Stores increment their granule by
     *  (arg0 + 1); transactional stores are buffered per thread and
     *  only reach here on commit. */
    mem::VirtualMemory &memory() { return mem_; }
    const mem::VirtualMemory &memory() const { return mem_; }
    detector::HbDetector &det() { return det_; }
    const ir::Program &program() const { return prog_; }
    const MachineConfig &config() const { return cfg_; }
    ThreadContext &
    context(Tid t)
    {
        if (t >= contexts_.size())
            panic("Machine::context: bad tid %u", t);
        return *contexts_[t];
    }
    const ThreadContext &
    context(Tid t) const
    {
        if (t >= contexts_.size())
            panic("Machine::context: bad tid %u", t);
        return *contexts_[t];
    }
    size_t numThreads() const { return contexts_.size(); }
    uint32_t liveThreads() const { return live_; }

    /** Threads currently competing for cores (not blocked/finished);
     *  drives the oversubscription interrupt model. O(1): the machine
     *  maintains a dense runnable set across state transitions. */
    uint32_t runnableThreads() const
    {
        return static_cast<uint32_t>(runnable_.size());
    }

    /** Seeded-deterministic digest of the schedule: every scheduler
     *  pick folds (step, tid) into it. Two same-(program, config,
     *  policy) runs must agree; the golden determinism test asserts
     *  it. Specific to the quantum, like the schedule itself. */
    uint64_t scheduleHash() const { return schedHash_; }

    /** Charge @p c cost units to @p t under bucket @p b, attributed
     *  to the phase the profiler would assign @p t right now. */
    void
    addCost(Tid t, uint64_t c, Bucket b)
    {
        const bool in_tx = htm_.inTx(t);
        ThreadContext &ctx = *contexts_[t];
        book(ctx, c, b, phaseFor(ctx, in_tx), b == Bucket::Base && in_tx);
    }

    /** Charge @p c cost units to @p t under bucket @p b with an
     *  explicit phase attribution (e.g. governor backoff stalls are
     *  degradation overhead even while the thread reads as fast). */
    void
    addCost(Tid t, uint64_t c, Bucket b, telemetry::Phase p)
    {
        book(*contexts_[t], c, b, p, b == Bucket::Base && htm_.inTx(t));
    }

    /**
     * Ask the run loop to end the run after the current step with the
     * given structured error (used by the budget controller when the
     * overhead budget is unsatisfiable even at floor sampling).
     */
    void
    requestStop(RunError::Kind kind)
    {
        stopRequest_ = kind;
        quantumBreak_ = true;
    }

    /**
     * Commit @p t's transaction in the HTM engine and publish its
     * buffered stores to memory. Policies must use this instead of
     * calling htm().commit() directly so speculative state stays
     * consistent.
     */
    void commitTx(Tid t);

    /**
     * Reclassify @p t's base cost accrued since its transaction began
     * as wasted work of kind @p reason, and restore the control
     * snapshot. Does not touch the HTM engine (the caller aborts or
     * has aborted the transaction there).
     */
    void rollback(Tid t, Bucket reason);

    /**
     * Cost of one software check right now: the cost model's
     * effectiveCheckCost() (fixed at construction), inflated by any
     * active slow-path-stall fault episode. Every software check —
     * TSan, the TxRace slow path, winner replays — is charged at
     * this price.
     */
    uint64_t
    checkCost() const
    {
        double stall = faults_.slowPathCostMult();
        if (stall > 1.0)
            return static_cast<uint64_t>(
                static_cast<double>(checkCost_) * stall);
        return checkCost_;
    }

    /** Total virtual cost so far. */
    uint64_t totalCost() const { return totalCost_; }

    /** Cost per attribution bucket. */
    const std::array<uint64_t, kNumBuckets> &buckets() const
    {
        return buckets_;
    }

    /** Telemetry bundle: typed metrics registry, phase profiler,
     *  conflict attribution, the event stream. The registry is the only
     *  place counters are written: policies intern their metric ids
     *  here in onRunStart(), and run() publishes the HTM engine's and
     *  detector's plain counters into it at the end of the run. */
    telemetry::Telemetry &tel() { return tel_; }
    const telemetry::Telemetry &tel() const { return tel_; }

    /** Current scheduler step (for event stamping). */
    uint64_t currentStep() const { return steps_; }

    /** Static instruction id thread @p t is parked on right now
     *  (ir::kNoInstr past the end of its function) — abort/forensics
     *  attribution. */
    ir::InstrId currentSite(Tid t) const;

    /** Active fault-injection state (policies consult the modifiers
     *  that apply to them: TxFail delay, slow-path stall). */
    const fault::FaultInjector &faults() const { return faults_; }
    /** @} */

  private:
    /** Out-of-line handler bodies (defined in machine.cc). */
    friend struct ExecHandlers;

    /**
     * The quantum loop: one switch on DecodedOp::kind runs the simple
     * ops inline and calls the out-of-line handlers for the rest.
     * Runs until the program ends or error_ is filled. Bookkeeping is
     * per quantum, not per op: the running thread's phase and
     * in-transaction flag are read once when its quantum starts (every
     * op that could change them forces a quantum break), its steps are
     * noted once when the quantum ends, and ops only add their Base
     * cost to the pending sum, which settle() books before any policy
     * hook runs and at every exit of the quantum. Hooks and mid-run
     * readers (totalCost(), buckets(), myCost, baseSinceTxBegin)
     * therefore see exactly the per-op numbers.
     */
    void runDecoded();

    /** Book the running thread's pending Base cost under its
     *  quantum's phase and in-transaction flag. */
    void
    settle(ThreadContext &ctx)
    {
        if (pendingBase_ == 0)
            return;
        book(ctx, pendingBase_, Bucket::Base, quantumPhase_,
             quantumInTx_);
        pendingBase_ = 0;
    }

    /** Book one charge. @p base_in_tx: Base cost inside a transaction
     *  (rollback reclassifies it as wasted work). */
    void
    book(ThreadContext &ctx, uint64_t c, Bucket b, telemetry::Phase p,
         bool base_in_tx)
    {
        totalCost_ += c;
        buckets_[static_cast<size_t>(b)] += c;
        tel_.phases.noteCost(ctx.tid, p, c);
        ctx.myCost += c;
        if (base_in_tx)
            ctx.baseSinceTxBegin += c;
    }

    /** Phase of @p ctx given whether its thread is transactional. */
    static telemetry::Phase
    phaseFor(const ThreadContext &ctx, bool in_tx)
    {
        if (ctx.path == PathMode::Slow)
            return ctx.govForced ? telemetry::Phase::Degraded
                                 : telemetry::Phase::Slow;
        return in_tx ? telemetry::Phase::Fast : telemetry::Phase::Native;
    }

    /** In-transaction interrupt/retry injection for one op; true =
     *  an abort was delivered (the step is consumed). */
    bool injectAbort(Tid t);
    /** Raise the structured BadAccess stop for an access to @p a. */
    void badAccess(Tid t, ir::Addr a);
    /** Record the Truncated run error (maxSteps guard). */
    void truncateRun();
    /** Record a pending requestStop() as the run error. */
    void recordStop();
    /** End of run: move the HTM engine's, line directory's and
     *  detector's plain counters into the registry. */
    void publishCounters();
    /** Point @p ctx at the decoded body of its function. */
    void bindCode(ThreadContext &ctx);
    void finishThread(Tid t);
    void wakeJoinWaiters(Tid finished);
    /** Add a brand-new thread to the runnable set. */
    void enrollRunnable(ThreadContext &ctx);
    /** Blocked -> Runnable (no-op when already runnable). */
    void makeRunnable(ThreadContext &ctx);
    /** Runnable -> @p to, dropping the dense-set entry (swap-remove). */
    void makeUnrunnable(ThreadContext &ctx, ThreadState to);
    Tid pickRunnable();
    void reportDeadlock();
    /** Apply fault-plan transitions due at the current step; true =
     *  an episode edge was crossed (forced preemption point). */
    bool advanceFaults();
    /** Fill error_.threads with every unfinished thread's state. */
    void captureUnfinishedThreads();

    /** Resolve a ThreadJoin target list; returns true when all
     *  targets are finished (join completes). A join of a spawn index
     *  not spawned yet is not ready and leaves @p targets empty. */
    bool joinReady(const ir::Instruction &ins, Tid t,
                   std::vector<Tid> &targets);

    const ir::Program &prog_;
    MachineConfig cfg_;
    ExecutionPolicy &policy_;

    htm::HtmEngine htm_;
    detector::HbDetector det_;
    sync::SyncTables sync_;
    mem::VirtualMemory mem_;
    fault::FaultInjector faults_;
    /** cfg_.cost.effectiveCheckCost() (see checkCost()). */
    const uint64_t checkCost_;

    /** Program decoded under this machine's cost model. */
    DecodedProgram decoded_;
    /** End of the simulated address space (cached addrSpaceSize). */
    ir::Addr addrLimit_ = 0;

    /** Owned contexts: references stay valid as ThreadCreate grows
     *  the vector, and finding one is a single load (the hooks ask
     *  for the running thread's context on every access). */
    std::vector<std::unique_ptr<ThreadContext>> contexts_;
    std::vector<Tid> spawned_;  ///< spawn-order list (join indexing)
    std::unordered_map<Tid, std::vector<Tid>> joinWaiters_;
    /** Threads blocked on a join of a spawn index not spawned yet;
     *  the next ThreadCreate wakes them to re-check. */
    std::vector<Tid> spawnWaiters_;

    /** Dense runnable set: tids in arbitrary order, swap-removed on
     *  block/finish. runnablePos_[tid] is the tid's index (kNoPos
     *  when absent). Every ThreadState transition goes through the
     *  makeRunnable/makeUnrunnable/enroll helpers so the set is
     *  always exact. */
    std::vector<Tid> runnable_;
    std::vector<uint32_t> runnablePos_;
    /** Set at forced preemption points (sync ops, tx boundaries,
     *  contended memory ops, blocking, stop requests): ends the
     *  current quantum. */
    bool quantumBreak_ = false;
    /** Running thread's phase and in-transaction flag, read once
     *  when its quantum starts. */
    telemetry::Phase quantumPhase_ = telemetry::Phase::Native;
    bool quantumInTx_ = false;
    /** Running thread's Base cost not yet booked (see settle()); the
     *  quantum loop keeps it in a local between hooks. */
    uint64_t pendingBase_ = 0;
    /** policy_.observesAccesses(), asked once at run start. */
    bool observeAccesses_ = true;
    /** Join-target scratch (avoids a per-join allocation). */
    std::vector<Tid> joinScratch_;
    uint64_t schedHash_ = 0x9e3779b97f4a7c15ULL;

    Rng schedRng_;
    Rng intrRng_;
    uint32_t live_ = 0;
    uint64_t steps_ = 0;
    uint64_t totalCost_ = 0;
    std::array<uint64_t, kNumBuckets> buckets_{};
    RunError error_;
    RunError::Kind stopRequest_ = RunError::Kind::None;
    /** run() was called (a Machine runs once). */
    bool ran_ = false;

    telemetry::Telemetry tel_;
    /** Pre-interned ids of the machine's own hot-path metrics. */
    struct MachineMetrics
    {
        telemetry::MetricId rollbacks;
        telemetry::MetricId interruptAborts;
        telemetry::MetricId retryAborts;
        telemetry::MetricId syscalls;
        telemetry::MetricId threadsCreated;
        telemetry::MetricId deadlocks;
        telemetry::MetricId steps;      ///< gauge
        telemetry::MetricId truncated;  ///< gauge
        telemetry::MetricId txCost;     ///< histogram: base cost/commit
        telemetry::MetricId txWasted;   ///< histogram: base cost/abort
    };
    MachineMetrics met_;
};

} // namespace txrace::sim

#endif // TXRACE_SIM_MACHINE_HH
