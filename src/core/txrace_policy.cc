#include "core/policies.hh"

#include <algorithm>

#include "core/driver.hh"
#include "support/log.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;
using sim::PathMode;

namespace {

/** Sentinel: the current transaction is not a loop segment. */
constexpr uint64_t kNoCutLoop = ~0ull;

using telemetry::FrAbort;
using telemetry::FrBudget;
using telemetry::FrKind;
using telemetry::FrSlow;

/** Event-stream helper; note() itself no-ops when nothing records. */
void
flightNote(Machine &m, Tid t, FrKind k, uint32_t site = ir::kNoInstr,
           uint64_t arg = 0, uint8_t flags = 0)
{
    m.tel().flight.note(t, k, m.currentStep(), site, arg, flags);
}

/** Monitor mode: end the run once even floor sampling cannot keep
 *  the budget. */
void
stopIfUnsatisfiable(Machine &m, const BudgetController &budget, Tid t,
                    uint32_t site)
{
    if (!budget.unsatisfiable())
        return;
    flightNote(m, t, FrKind::Budget, site,
               static_cast<uint64_t>(FrBudget::Unsatisfiable));
    m.requestStop(sim::RunError::Kind::Budget);
}

} // namespace

TxRacePolicy::TxRacePolicy(const RunConfig &cfg,
                           const LoopCutTable *preloaded)
    : HbTrackingPolicy(Bucket::Txn),
      perObjectHb_(cfg.passes.elide.enabled),
      governor_(cfg.governor, cfg.machine.seed ^ 0x9075ea1ULL),
      budget_(cfg.budget, cfg.machine.seed ^ 0x9075ea1ULL)
{
    if (!isTxRaceMode(cfg.mode))
        fatal("TxRacePolicy: %s is not a TxRace mode",
              runModeName(cfg.mode));
    if (cfg.slowpath == SlowPathKind::Replay)
        vlog_.emplace();
    if (preloaded) {
        for (const auto &[loop, entry] : preloaded->all())
            loopcuts_.preload(loop, entry.threshold);
    }
}

TxRacePolicy::ThreadTx &
TxRacePolicy::state(Tid t)
{
    if (t >= threads_.size())
        threads_.resize(t + 1);
    return threads_[t];
}

void
TxRacePolicy::onRunStart(Machine &m)
{
    const auto &prog = m.program();
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f)
        for (const auto &ins : prog.function(f).body)
            if (ins.op == ir::OpCode::LoopCut)
                cutLoops_.insert(ins.arg0);
    governor_.setShortTxUseful(!cutLoops_.empty());
    // Track only the sync ops whose clocks a check can read: none in
    // a program with no instrumented access, and with the elision
    // pipeline on, only the locks and condvars that can order two
    // checked accesses (passes::hbRelevance).
    hb_ = passes::hbRelevance(prog, perObjectHb_);

    // Intern every hot-path counter once; the per-access and
    // per-abort paths below then update by integer id. Registration
    // order is fixed by this code, so ids — and the exported dump —
    // are deterministic across runs.
    auto &reg = m.tel().registry;
    met_.txBegins = reg.counter("tx.begins");
    met_.txCommitted = reg.counter("tx.committed");
    met_.abortConflict = reg.counter("tx.abort.conflict");
    met_.abortCapacity = reg.counter("tx.abort.capacity");
    met_.abortUnknown = reg.counter("tx.abort.unknown");
    met_.abortRetry = reg.counter("tx.abort.retry");
    met_.smallSlowRegions = reg.counter("txrace.small_slow_regions");
    met_.elided = reg.counter("txrace.elided");
    met_.bareRegions = reg.counter("txrace.bare_regions");
    met_.slowRegions = reg.counter("txrace.slow_regions");
    met_.hwlimitAborts = reg.counter("txrace.hwlimit_aborts");
    met_.loopCuts = reg.counter("txrace.loop_cuts");
    met_.artificialAborts = reg.counter("txrace.artificial_aborts");
    met_.txfailDelaySteps = reg.counter("txrace.txfail_delay_steps");
    met_.txfailWrites = reg.counter("txrace.txfail_writes");
    met_.retries = reg.counter("txrace.retries");
    met_.retryExhausted = reg.counter("txrace.retry_exhausted");
    met_.govSampledRegions = reg.counter("txrace.gov.sampled_regions");
    met_.govForcedSlowRegions =
        reg.counter("txrace.gov.forced_slow_regions");
    met_.govSampleSkipped = reg.counter("txrace.gov.sample_skipped");
    met_.govSampledChecks = reg.counter("txrace.gov.sampled_checks");
    met_.govTightenedCuts = reg.counter("txrace.gov.tightened_cuts");
    met_.accessInstrumented =
        reg.counter("txrace.access.instrumented");
    met_.accessUninstrumented =
        reg.counter("txrace.access.uninstrumented");
    met_.windowReplays = reg.counter("txrace.window.replays");
    met_.windowLen = reg.histogram("slowpath.window.len");
    met_.windowReplayCost =
        reg.histogram("slowpath.window.replay_cost");
    governor_.bindMetrics(reg);
    budget_.bindMetrics(reg);
    if (budget_.enabled())
        governor_.setBudget(&budget_);
    budget_.onRunStart(m);
    untracked_ = reg.counter("txrace.hb.untracked");

    // Forensics hook: when the flight recorder is live, drain the
    // involved threads' event windows at the instant the detector
    // reports a *new* static race. First-detection-only keeps the
    // capture set deterministic and bounded.
    if (m.tel().flight.ringEnabled())
        m.det().setRaceObserver(
            [this, &m](const detector::Race &race, Tid cur, Tid other) {
                captureRaceForensics(m, race, cur, other);
            });
}

void
TxRacePolicy::captureRaceForensics(Machine &m, const detector::Race &race,
                                   Tid current, Tid other)
{
    auto &tel = m.tel();
    if (tel.forensics.size() >= telemetry::Telemetry::kMaxForensics)
        return;
    telemetry::ForensicsCapture cap;
    cap.trigger = "race";
    cap.step = m.currentStep();
    cap.siteA = race.first;
    cap.siteB = race.second;
    cap.kind = detector::raceKindName(race.kind);
    cap.granule = mem::granuleOf(race.addr);
    std::vector<Tid> tids{std::min(current, other)};
    if (current != other)
        tids.push_back(std::max(current, other));
    for (Tid tid : tids) {
        telemetry::ForensicsThread ft =
            telemetry::drainThread(tel.flight, tid);
        if (governor_.enabled())
            ft.govLevel = governor_.level(tid);
        if (budget_.enabled()) {
            // The deepest sampling shift either racing site carries:
            // how close monitor-mode sampling came to hiding this race.
            for (const auto &[site, shift] : budget_.report().siteShifts)
                if (site == race.first || site == race.second)
                    ft.siteShift =
                        std::max<uint64_t>(ft.siteShift, shift);
        }
        cap.threads.push_back(std::move(ft));
    }
    cap.lastWriters =
        telemetry::lastWriterChain(cap.threads, cap.granule);
    tel.forensics.push_back(std::move(cap));
}

void
TxRacePolicy::onRunEnd(Machine &m)
{
    auto &reg = m.tel().registry;
    if (vlog_) {
        const VersionLogCounters &vc = vlog_->counters();
        reg.addNamed("htm.vlog.entries", vc.entries);
        reg.addNamed("htm.vlog.ring_overflows", vc.ringOverflows);
        reg.addNamed("htm.vlog.owed_dropped", vc.owedDropped);
    }
    if (!budget_.enabled())
        return;
    // Monitor-mode observability (exported through the registry after
    // this hook returns): the ladder's final resting level per thread,
    // the distribution of per-site sampling shifts, and how much of
    // the last complete window's budget was left. Registration order
    // here is fixed, so the dump stays deterministic.
    for (Tid t = 0; t < m.numThreads(); ++t)
        reg.set(reg.gauge(strprintf("txrace.gov.level.t%u", t)),
                governor_.level(t));
    BudgetReport rep = budget_.report();
    telemetry::MetricId shifts =
        reg.histogram("budget.site_rate_shift");
    for (const auto &[site, shift] : rep.siteShifts) {
        (void)site;
        reg.observe(shifts, shift);
    }
    uint64_t allowed = static_cast<uint64_t>(
        rep.budgetPct / 100.0 * static_cast<double>(rep.windowBase));
    uint64_t headroom = allowed;
    if (!rep.windows.empty()) {
        uint64_t oh = rep.windows.back().overhead;
        headroom = oh >= allowed ? 0 : allowed - oh;
    }
    reg.set(reg.gauge("budget.headroom"), headroom);
}

/**
 * The one slow-path entry: @p t runs the rest of its region under the
 * software detector, its overhead charged to @p reason. @p why
 * (FrSlow) and @p site attribute the SlowEnter event. The region's
 * snapshot and loop-cut segment die here, since a slow episode never
 * rolls back; the region's TxEnd ends the episode. An aborted
 * transaction's owed window is settled first: dropped when the episode
 * checks every access again, replayed when the monitor budget may gate
 * its checks.
 */
void
TxRacePolicy::enterSlow(Machine &m, Tid t, Bucket reason, uint32_t site,
                        uint8_t why)
{
    settleAbortedWindow(m, t, /*rechecked=*/!budget_.enabled());
    auto &ctx = m.context(t);
    ctx.snap.valid = false;
    ctx.path = PathMode::Slow;
    ThreadTx &tx = state(t);
    tx.lastLoopCutId = ir::kNoInstr;
    tx.slowReason = reason;
    flightNote(m, t, FrKind::SlowEnter, site,
               static_cast<uint64_t>(reason), why);
}

void
TxRacePolicy::beginTx(Machine &m, Tid t, uint8_t begin_kind)
{
    // A transaction re-begun in place after an abort re-runs its
    // accesses on the fast path, where nothing checks them: a window
    // the aborted one still owes is replayed now.
    settleAbortedWindow(m, t, /*rechecked=*/false);
    m.htm().begin(t);
    if (vlog_)
        vlog_->beginTx(t);
    // Every transaction reads TxFail right after xbegin so that a
    // non-transactional write to it aborts all in-flight transactions
    // (strong isolation + requester-wins).
    m.htm().access(t, Machine::kTxFailAddr, false);
    m.context(t).baseSinceTxBegin = 0;
    // tx.begins counts every xbegin issued — region entries, loop-cut
    // segments, and the in-place re-begins — so it can never
    // undercount tx.committed (the profile invariant).
    m.tel().registry.add(met_.txBegins);
    flightNote(m, t, FrKind::TxBegin, ir::kNoInstr, 0, begin_kind);
}

void
TxRacePolicy::enterFastTx(Machine &m, Tid t, const ir::Instruction &ins,
                          uint64_t segment_loop, uint8_t begin_kind)
{
    // The xbegin is paid whether or not the hardware grants it.
    m.addCost(t, m.config().cost.txBeginCost, Bucket::Txn);
    if (!m.htm().canBegin()) {
        // More live transactions than hardware threads: the xbegin
        // aborts immediately with an unspecified status (§6, reason
        // four). Fall back to the slow path for this region.
        m.tel().registry.add(met_.abortUnknown);
        m.tel().registry.add(met_.hwlimitAborts);
        flightNote(m, t, FrKind::TxAbort, ins.id,
                   static_cast<uint64_t>(FrAbort::HwLimit));
        enterSlow(m, t, Bucket::Unknown, ins.id, FrSlow::HwLimit);
        return;
    }
    beginTx(m, t, begin_kind);
    state(t).lastLoopCutId = segment_loop == kNoCutLoop
        ? ir::kNoInstr
        : static_cast<uint32_t>(segment_loop);
    auto &ctx = m.context(t);
    ctx.takeSnapshot(ctx.pc + 1);
}

void
TxRacePolicy::onTxBegin(Machine &m, Tid t, const ir::Instruction &ins)
{
    auto &ctx = m.context(t);
    if (ctx.path == PathMode::Slow)
        panic("TxRacePolicy: TxBegin while on the slow path");
    if (ins.arg1 == ir::kRegionBare) {
        // Nothing to check (elide.cc pass 3): no transaction, no slow
        // path. The accesses still go through the HTM, so strong
        // isolation aborts the transactions they hit.
        m.tel().registry.add(met_.bareRegions);
        return;
    }
    if (ins.arg1 == ir::kRegionForcedSlow) {
        // Small region (< K memory ops): the software check is
        // cheaper than transaction management (§4.3).
        m.tel().registry.add(met_.smallSlowRegions);
        enterSlow(m, t, Bucket::Txn, ins.id, FrSlow::SmallRegion);
        return;
    }
    if (m.liveThreads() <= 1) {
        // Single-threaded mode: no races are possible; skip HTM.
        m.tel().registry.add(met_.elided);
        return;
    }
    if (budget_.enabled() &&
        !budget_.admitRegion(m, t, m.config().cost.txBeginCost +
                                       m.config().cost.txEndCost)) {
        // Out of budget for this window: the region runs entirely
        // uninstrumented (the same shape as single-threaded elision —
        // no transaction, no slow path, no checks). Recall is traded;
        // precision cannot be (we only ever skip work).
        flightNote(m, t, FrKind::Budget, ins.id,
                   static_cast<uint64_t>(FrBudget::RegionGated));
        stopIfUnsatisfiable(m, budget_, t, ins.id);
        return;
    }
    if (governor_.enabled()) {
        uint32_t level = governor_.levelForRegion(m, t);
        if (level >= FallbackGovernor::kSlowStart) {
            // Degraded: the region starts directly on the slow path
            // (full detection, none of the xbegin/abort/rollback
            // churn the storm would turn into wasted work). Level 3
            // additionally samples the checks to bound their cost.
            bool sampled = level >= FallbackGovernor::kSampling;
            state(t).sampleMode = sampled;
            ctx.govForced = true;
            m.tel().registry.add(sampled ? met_.govSampledRegions
                                         : met_.govForcedSlowRegions);
            flightNote(m, t, FrKind::Gov, ins.id, level);
            enterSlow(m, t, governor_.demoteReasonFor(t), ins.id,
                      FrSlow::Governor);
            return;
        }
    }
    state(t).retryCount = 0;
    enterFastTx(m, t, ins, kNoCutLoop, telemetry::FrBegin::Region);
}

void
TxRacePolicy::onTxEnd(Machine &m, Tid t, const ir::Instruction &)
{
    auto &ctx = m.context(t);
    ThreadTx &tx = state(t);
    if (m.htm().inTx(t)) {
        commitTx(m, t, ir::kNoInstr, telemetry::FrCommit::RegionEnd);
        m.addCost(t, m.config().cost.txEndCost, Bucket::Txn);
        governor_.onCommit(t);
        if (tx.lastLoopCutId != ir::kNoInstr)
            loopcuts_.onCommit(tx.lastLoopCutId);
        tx.lastLoopCutId = ir::kNoInstr;
        ctx.snap.valid = false;
        ctx.baseSinceTxBegin = 0;
    } else if (ctx.path == PathMode::Slow) {
        // The slow-path episode covered the whole region; resume the
        // fast path for the next region.
        ctx.path = PathMode::Fast;
        tx.sampleMode = false;
        ctx.govForced = false;
        m.tel().registry.add(met_.slowRegions);
        flightNote(m, t, FrKind::SlowExit);
    }
    // else: the region ran without a transaction (bare, single-
    // threaded or budget-gated).
}

void
TxRacePolicy::onLoopCut(Machine &m, Tid t, const ir::Instruction &ins)
{
    if (!m.htm().inTx(t))
        return;
    auto &ctx = m.context(t);
    if (ctx.loops.empty())
        panic("TxRacePolicy: LoopCut outside any loop");
    sim::LoopFrame &frame = ctx.loops.back();
    ++frame.itersInTx;

    uint64_t thr = loopcuts_.threshold(ins.arg0);
    if (thr > 1 && governor_.enabled()) {
        // ShortTx degradation: tighter cuts mean less work lost per
        // abort while a storm lasts.
        uint64_t div = governor_.loopcutDivisorFor(t);
        if (div > 1) {
            thr = std::max<uint64_t>(1, thr / div);
            m.tel().registry.add(met_.govTightenedCuts);
        }
    }
    if (thr == 0 || frame.itersInTx < thr)
        return;

    // Cut: end the transaction here and immediately start the next
    // segment, so the write set never reaches the capacity limit.
    commitTx(m, t, ins.id, telemetry::FrCommit::LoopCut);
    m.tel().registry.add(met_.loopCuts);
    debugLog("cut t%u loop=%llu at iters=%llu thr=%llu", t,
             (unsigned long long)ins.arg0,
             (unsigned long long)frame.itersInTx,
             (unsigned long long)thr);
    m.addCost(t, m.config().cost.txEndCost, Bucket::Txn);
    // Growth is credited once per region (at TxEnd), not per segment:
    // per-segment growth overshoots the capacity boundary every few
    // iterations and thrashes.
    frame.itersInTx = 0;
    enterFastTx(m, t, ins, ins.arg0);
}

uint64_t
TxRacePolicy::innermostCutLoop(Machine &m, Tid t,
                               uint64_t &iters_in_tx) const
{
    const auto &ctx = m.context(t);
    const auto &body = m.program().function(ctx.func).body;
    for (auto it = ctx.loops.rbegin(); it != ctx.loops.rend(); ++it) {
        uint64_t loop_id = body[it->beginPc].id;
        if (cutLoops_.count(loop_id)) {
            iters_in_tx = it->itersInTx;
            return loop_id;
        }
    }
    iters_in_tx = 0;
    return kNoCutLoop;
}

void
TxRacePolicy::commitTx(Machine &m, Tid t, ir::InstrId site,
                       uint8_t commit_kind)
{
    std::vector<VersionLogEntry> owed;
    if (vlog_) {
        owed = vlog_->owedWindow(t);
        vlog_->commitTx(t);
    }
    m.commitTx(t);
    m.tel().registry.add(met_.txCommitted);
    flightNote(m, t, FrKind::TxCommit, site,
               m.context(t).baseSinceTxBegin, commit_kind);
    // The winner escaped every TxFail broadcast (one would have
    // aborted it), so nothing else checks its side of the conflicts it
    // won (§6, false-negative source two). Still exact: a transaction
    // holds no sync op, so t's clock has not moved since it logged the
    // window, and the sync that follows this commit has not run yet.
    replayOwedWindow(m, t, owed);
}

void
TxRacePolicy::markWinnerWindowOwed(Machine &m, Tid winner,
                                   ir::InstrId site)
{
    if (!vlog_ || !m.htm().inTx(winner))
        return;
    // The window ends with the conflicting access itself (logged
    // before victim handling). It is replayed only if the winner
    // commits; most winners are still in flight when the victim
    // publishes TxFail, and the slow path re-checks them anyway.
    vlog_->markOwed(winner, site);
}

void
TxRacePolicy::replayOwedWindow(Machine &m, Tid t,
                               const std::vector<VersionLogEntry> &w)
{
    if (w.empty())
        return;
    const ir::InstrId site = vlog_->owedSite(t);
    uint64_t replay_cost = m.config().cost.windowReplaySetupCost +
                           m.checkCost() * w.size();
    m.addCost(t, replay_cost, Bucket::Conflict);
    for (const VersionLogEntry &e : w)
        m.det().replayAccess(t, e.addr, e.site, e.isWrite);
    m.tel().registry.add(met_.windowReplays);
    m.tel().registry.observe(met_.windowLen, w.size());
    m.tel().registry.observe(met_.windowReplayCost, replay_cost);
    ++m.tel().siteStats[site].windowReplays;
    flightNote(m, t, FrKind::WindowReplay, site, w.size());
}

void
TxRacePolicy::settleAbortedWindow(Machine &m, Tid t, bool rechecked)
{
    if (!vlog_)
        return;
    if (!rechecked) {
        replayOwedWindow(m, t, vlog_->owedWindow(t));
        vlog_->settleOwed(t);
    }
    vlog_->clear(t);
}

void
TxRacePolicy::handleConflictVictim(Machine &m, Tid v)
{
    m.tel().registry.add(met_.abortConflict);
    flightNote(m, v, FrKind::TxAbort, m.currentSite(v),
               static_cast<uint64_t>(FrAbort::Conflict));
    m.rollback(v, Bucket::Conflict);
    // Feed the governor's abort window and livelock detector; the
    // TxFail protocol always runs regardless (the other side of the
    // race must be re-checked).
    governor_.onAbort(m, v, Bucket::Conflict, /*primary=*/true);
    // The victim publishes TxFail at its next step (§3 step 3); the
    // delay is what lets concurrent winners commit first and escape
    // re-execution — false-negative source two (§6). Fault injection
    // can stretch that delay further (TxFailDelay episodes).
    ThreadTx &vtx = state(v);
    vtx.mustWriteTxFail = true;
    vtx.txFailDelay = m.faults().txFailDelaySteps();
}

bool
TxRacePolicy::beforeStep(Machine &m, Tid t)
{
    ThreadTx &tx = state(t);
    if (!tx.mustWriteTxFail)
        return false;
    if (tx.txFailDelay > 0) {
        // Injected publication delay: the flag write has not become
        // visible yet; the victim stalls while concurrent winners get
        // more room to commit and escape re-execution.
        --tx.txFailDelay;
        m.tel().registry.add(met_.txfailDelaySteps);
        return true;
    }
    tx.mustWriteTxFail = false;
    m.tel().registry.add(met_.txfailWrites);
    flightNote(m, t, FrKind::TxFailWrite);

    // Non-transactional write to the TxFail flag: strong isolation
    // aborts every in-flight transaction (they all read the flag at
    // begin). They resume on the slow path without re-publishing
    // (their abort handler observes the flag already set).
    auto res = m.htm().access(t, Machine::kTxFailAddr, true);
    for (Tid v : res.victims) {
        m.tel().registry.add(met_.abortConflict);
        m.tel().registry.add(met_.artificialAborts);
        flightNote(m, v, FrKind::TxAbort, m.currentSite(v),
                   static_cast<uint64_t>(FrAbort::TxFail));
        m.rollback(v, Bucket::Conflict);
        // Collateral casualties of the broadcast: they feed the abort
        // window but not the livelock detector.
        governor_.onAbort(m, v, Bucket::Conflict, /*primary=*/false);
        enterSlow(m, v, Bucket::Conflict, m.currentSite(v),
                  FrSlow::TxFail);
    }
    m.addCost(t, m.config().cost.storeCost, Bucket::Conflict);
    enterSlow(m, t, Bucket::Conflict, m.currentSite(t), FrSlow::Conflict);
    return true;
}

void
TxRacePolicy::handleSelfCapacity(Machine &m, Tid t, ir::InstrId site)
{
    m.tel().registry.add(met_.abortCapacity);
    if (site != ir::kNoInstr)
        ++m.tel().siteStats[site].capacityAborts;
    flightNote(m, t, FrKind::TxAbort, site,
               static_cast<uint64_t>(FrAbort::Capacity));
    // Attribute the abort to the innermost loop-cut loop *before*
    // rolling back the loop stack (the stand-in for LBR attribution).
    uint64_t iters_in_tx = 0;
    uint64_t loop = innermostCutLoop(m, t, iters_in_tx);
    if (loop != kNoCutLoop) {
        // Governed = the transaction died before reaching this loop's
        // active cut point; only then is the threshold too large.
        uint64_t thr = loopcuts_.threshold(loop);
        bool governed = thr > 0 && iters_in_tx < thr;
        loopcuts_.onCapacityAbort(loop, governed);
        debugLog("capacity abort t%u loop=%llu governed=%d thr->%llu",
                 t, (unsigned long long)loop, governed ? 1 : 0,
                 (unsigned long long)loopcuts_.threshold(loop));
    }
    m.rollback(t, Bucket::Capacity);
    // Capacity aborts never retry in place (the region would hit the
    // same wall), but they count toward the governor's abort rate —
    // a capacity cliff should demote just like an interrupt storm.
    governor_.onAbort(m, t, Bucket::Capacity);
    // Only this thread falls back; concurrent transactions keep
    // running (no TxFail write) — Fig. 5's concurrent fast+slow.
    enterSlow(m, t, Bucket::Capacity, site, FrSlow::Capacity);
}

void
TxRacePolicy::onInterruptAbort(Machine &m, Tid t)
{
    m.tel().registry.add(met_.abortUnknown);
    if (ir::InstrId site = m.currentSite(t); site != ir::kNoInstr)
        ++m.tel().siteStats[site].otherAborts;
    m.rollback(t, Bucket::Unknown);
    if (governor_.enabled() && m.htm().canBegin() &&
        governor_.onAbort(m, t, Bucket::Unknown) ==
            GovernorAction::RetryBackoff) {
        // Ride the storm out in place: re-enter the transaction at
        // the restored resume point after the backoff stall the
        // governor charged, instead of surrendering the whole region
        // to an expensive slow-path episode.
        m.addCost(t, m.config().cost.txBeginCost, Bucket::Txn);
        beginTx(m, t, telemetry::FrBegin::Backoff);
        return;
    }
    enterSlow(m, t, Bucket::Unknown, m.currentSite(t), FrSlow::Interrupt);
}

void
TxRacePolicy::onRetryAbort(Machine &m, Tid t)
{
    // Retry bit without conflict (§4.2): retry the transaction in
    // place, a bounded number of times per region; then treat it like
    // an unknown abort and fall back to the slow path.
    m.tel().registry.add(met_.abortRetry);
    if (ir::InstrId site = m.currentSite(t); site != ir::kNoInstr)
        ++m.tel().siteStats[site].otherAborts;
    m.rollback(t, Bucket::Txn);
    // Retry-bit glitches feed the abort-rate window: a sticky glitch
    // (fault injection) exhausts the bounded retries below over and
    // over, and the governor is what keeps that from thrashing.
    governor_.onAbort(m, t, Bucket::Txn);
    ThreadTx &tx = state(t);
    if (tx.retryCount < kMaxRetries && m.htm().canBegin()) {
        ++tx.retryCount;
        m.tel().registry.add(met_.retries);
        m.addCost(t, m.config().cost.txBeginCost, Bucket::Txn);
        // Re-enter at the restored resume point; the existing
        // snapshot still describes it.
        beginTx(m, t);
        return;
    }
    m.tel().registry.add(met_.retryExhausted);
    enterSlow(m, t, Bucket::Unknown, m.currentSite(t),
              FrSlow::RetryExhausted);
}

void
TxRacePolicy::softwareCheck(Machine &m, Tid t, const ir::Instruction &ins,
                            ir::Addr addr, bool is_write)
{
    const ThreadTx &tx = state(t);
    const Bucket bucket = tx.slowReason;
    // Priced before admission so the gate sees the true (possibly
    // stall-inflated) cost.
    uint64_t check = m.checkCost();
    if (budget_.enabled() && !budget_.admitCheck(m, t, ins.id, check)) {
        // Monitor mode: the window is out of admission budget, the
        // check's cost would cross the hard line, or this site's
        // deterministic sampling draw missed. Either way the access
        // pays only the gate branch.
        flightNote(m, t, FrKind::Budget, ins.id,
                   static_cast<uint64_t>(FrBudget::CheckGated));
        m.addCost(t, 1, bucket);
        stopIfUnsatisfiable(m, budget_, t, ins.id);
        return;
    }
    m.addCost(t, check, bucket);
    budget_.chargeSite(ins.id, check);
    auto &ss = m.tel().siteStats[ins.id];
    ++ss.slowChecks;
    ss.slowCost += check;
    if (tx.sampleMode)
        m.tel().registry.add(met_.govSampledChecks);
    else
        governor_.onSlowCheckCost(m, t, check);
    if (is_write)
        m.det().write(t, addr, ins.id);
    else
        m.det().read(t, addr, ins.id);
}

bool
TxRacePolicy::onMemAccess(Machine &m, Tid t, const ir::Instruction &ins,
                          ir::Addr addr, bool is_write)
{
    const auto &cost = m.config().cost;
    if (budget_.enabled())
        budget_.rollWindows(m);
    m.tel().registry.add(ins.instrumented ? met_.accessInstrumented
                                          : met_.accessUninstrumented);
    if (ins.instrumented && cost.fastHookCost > 0)
        m.addCost(t, cost.fastHookCost, Bucket::Txn);
    // Flight window: instrumented accesses with site + granule. The
    // access is logged before the HTM/detector verdict, so a window
    // also shows accesses whose transaction later rolled back — what
    // a real post-mortem ring contains.
    if (ins.instrumented)
        flightNote(m, t, FrKind::Access, ins.id, mem::granuleOf(addr),
                   is_write ? 1 : 0);

    // Route through the HTM: conflict detection for transactional
    // accesses, strong isolation for non-transactional ones.
    auto res = m.htm().access(t, addr, is_write);
    // Record the access into the requester's version log BEFORE
    // victim handling, so the conflicting access itself is part of the
    // window the requester owes. A full ring aborts this transaction
    // exactly like a data-line overflow: it must never truncate, or
    // the replay would miss the accesses it dropped.
    bool log_overflow = false;
    if (vlog_ && !res.selfCapacity && ins.instrumented &&
        m.htm().inTx(t) &&
        !vlog_->append(t, addr, ins.id, is_write)) {
        m.htm().abortTx(t, htm::kAbortCapacity);
        log_overflow = true;
    }
    for (Tid v : res.victims) {
        // Attribute the conflict to the requester's cache line,
        // granule, and instruction: the top-N heatmap separates true
        // sharing from false-sharing candidates (>1 granule per line).
        m.tel().conflicts.record(mem::lineOf(addr),
                                 mem::granuleOf(addr), ins.id);
        ++m.tel().siteStats[ins.id].conflictAborts;
        // The same attribution feeds the budget controller: a site
        // whose conflicts keep rolling transactions back is a spender
        // just like a hot slow-path site, and gets cut first.
        budget_.chargeSite(ins.id, cost.rollbackCost);
        markWinnerWindowOwed(m, t, ins.id);
        handleConflictVictim(m, v);
    }
    if (res.selfCapacity || log_overflow) {
        handleSelfCapacity(m, t, ins.id);
        return false;  // the access did not complete
    }

    if (m.context(t).path == PathMode::Slow && ins.instrumented) {
        const ThreadTx &tx = state(t);
        if (tx.sampleMode && !governor_.sampleThisAccess(t)) {
            // Level-3 degradation: unsampled accesses only pay the
            // sampling branch.
            m.addCost(t, 1, tx.slowReason);
            m.tel().registry.add(met_.govSampleSkipped);
            return true;
        }
        softwareCheck(m, t, ins, addr, is_write);
    }
    return true;
}

void
TxRacePolicy::onSyncPerformed(Machine &m, Tid t,
                              const ir::Instruction &ins)
{
    // Happens-before order of synchronization is tracked on both
    // paths, so slow-path episodes never report stale false warnings
    // (§5, Figure 6); onRunStart chose the objects that need it. The
    // monitor books the tracking to the window its base clock is in.
    if (budget_.enabled())
        budget_.rollWindows(m);
    flightNote(m, t, FrKind::Sync, ins.id);
    HbTrackingPolicy::onSyncPerformed(m, t, ins);
}

void
TxRacePolicy::onThreadExit(Machine &m, Tid t)
{
    auto &ctx = m.context(t);
    uint8_t open = 0;
    if (m.htm().inTx(t)) {
        // The pass inserts TxEnd at every exit point, so this only
        // fires if a workload bypassed the pipeline.
        warn("TxRacePolicy: thread %u exiting inside a transaction", t);
        commitTx(m, t, ir::kNoInstr, telemetry::FrCommit::RegionEnd);
        open |= telemetry::FrOpen::Tx;
    }
    if (ctx.path == PathMode::Slow) {
        ctx.path = PathMode::Fast;
        open |= telemetry::FrOpen::Slow;
    }
    if (open != 0)
        flightNote(m, t, FrKind::RunEdge, ir::kNoInstr, open,
                   telemetry::FrRunEdge::ThreadExit);
    state(t).sampleMode = false;
    ctx.govForced = false;
}

} // namespace txrace::core
