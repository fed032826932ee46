#include "sim/machine.hh"

#include "ir/printer.hh"
#include "support/log.hh"

namespace txrace::sim {

namespace {

/** Fold one scheduler pick into the schedule digest. */
uint64_t
mixHash(uint64_t h, uint64_t step, Tid t)
{
    uint64_t s = h ^ (step + 0x9e3779b97f4a7c15ULL * (t + 1));
    return splitmix64(s);
}

/** runnablePos_ sentinel: thread not in the dense runnable set. */
constexpr uint32_t kNoPos = ~0u;

} // namespace

const char *
runErrorKindName(RunError::Kind kind)
{
    switch (kind) {
      case RunError::Kind::None:
        return "none";
      case RunError::Kind::Deadlock:
        return "deadlock";
      case RunError::Kind::Truncated:
        return "truncated";
      case RunError::Kind::Budget:
        return "budget";
      case RunError::Kind::BadAccess:
        return "bad-access";
    }
    return "?";
}

/**
 * Out-of-line handler bodies: the ops the quantum loop does not run
 * inline (sync, thread lifecycle, transaction and loop-cut ops, and
 * the BadAccess trap), resolved once at decode. Every one of them is
 * a forced preemption point and sets quantumBreak_. Handlers add
 * their op's Base cost to pendingBase_ and settle() it before calling
 * any policy hook.
 */
struct ExecHandlers
{
    /** Constant address statically outside the address space: raise
     *  the structured BadAccess error if actually executed. */
    static void
    memBad(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        m.pendingBase_ += op.cost;
        m.badAccess(ctx.tid, op.base);
    }

    static void
    lockAcquire(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        m.pendingBase_ += op.cost;
        m.settle(ctx);
        if (m.sync_.lockTryAcquire(t, op.arg0)) {
            m.policy_.onSyncPerformed(m, t, *op.ins);
            ++ctx.pc;
        } else {
            m.sync_.lockEnqueue(t, op.arg0);
            m.makeUnrunnable(ctx, ThreadState::Blocked);
        }
        m.quantumBreak_ = true;
    }

    static void
    lockRelease(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        m.pendingBase_ += op.cost;
        m.settle(ctx);
        m.policy_.onSyncPerformed(m, t, *op.ins);
        Tid next = m.sync_.lockRelease(t, op.arg0);
        if (next != kNoTid) {
            ThreadContext &nctx = *m.contexts_[next];
            m.policy_.onSyncPerformed(m, next,
                                      *nctx.code[nctx.pc].ins);
            m.makeRunnable(nctx);
            ++nctx.pc;
        }
        ++ctx.pc;
        m.quantumBreak_ = true;
    }

    static void
    condSignal(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        m.pendingBase_ += op.cost;
        m.settle(ctx);
        m.policy_.onSyncPerformed(m, t, *op.ins);
        Tid woken = m.sync_.condSignal(op.arg0);
        if (woken != kNoTid) {
            ThreadContext &wctx = *m.contexts_[woken];
            m.policy_.onSyncPerformed(m, woken,
                                      *wctx.code[wctx.pc].ins);
            m.makeRunnable(wctx);
            ++wctx.pc;
        }
        ++ctx.pc;
        m.quantumBreak_ = true;
    }

    static void
    condWait(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        m.pendingBase_ += op.cost;
        m.settle(ctx);
        if (m.sync_.condTryWait(op.arg0)) {
            m.policy_.onSyncPerformed(m, t, *op.ins);
            ++ctx.pc;
        } else {
            m.sync_.condEnqueue(t, op.arg0);
            m.makeUnrunnable(ctx, ThreadState::Blocked);
        }
        m.quantumBreak_ = true;
    }

    static void
    barrier(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        m.pendingBase_ += op.cost;
        m.settle(ctx);
        const std::vector<Tid> &released =
            m.sync_.barrierArrive(t, op.arg0, op.arg1);
        if (released.empty()) {
            m.makeUnrunnable(ctx, ThreadState::Blocked);
        } else {
            m.policy_.onBarrierRelease(m, released);
            for (Tid p : released) {
                ThreadContext &pctx = *m.contexts_[p];
                m.makeRunnable(pctx);
                ++pctx.pc;
            }
        }
        m.quantumBreak_ = true;
    }

    static void
    threadCreate(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        m.pendingBase_ += op.cost;
        m.settle(ctx);
        Tid child = static_cast<Tid>(m.contexts_.size());
        m.contexts_.push_back(std::make_unique<ThreadContext>());
        ThreadContext &cctx = *m.contexts_.back();
        cctx.tid = child;
        cctx.func = static_cast<ir::FuncId>(op.arg0);
        cctx.rng = Rng(threadSeed(m.cfg_.seed, child));
        m.bindCode(cctx);
        m.spawned_.push_back(child);
        ++m.live_;
        m.enrollRunnable(cctx);
        // Joins parked on a spawn index not spawned yet re-check.
        for (Tid w : m.spawnWaiters_)
            m.makeRunnable(*m.contexts_[w]);
        m.spawnWaiters_.clear();
        m.policy_.onThreadCreated(m, t, child);
        m.tel_.registry.add(m.met_.threadsCreated);
        ++ctx.pc;
        m.quantumBreak_ = true;
    }

    static void
    threadJoin(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        const Tid t = ctx.tid;
        std::vector<Tid> &targets = m.joinScratch_;
        if (m.joinReady(*op.ins, t, targets)) {
            m.pendingBase_ += op.cost;
            m.settle(ctx);
            for (Tid target : targets)
                m.policy_.onThreadJoined(m, t, target);
            ++ctx.pc;
        } else {
            if (targets.empty())
                m.spawnWaiters_.push_back(t);
            for (Tid target : targets)
                if (m.contexts_[target]->state != ThreadState::Finished)
                    m.joinWaiters_[target].push_back(t);
            m.makeUnrunnable(ctx, ThreadState::Blocked);
        }
        m.quantumBreak_ = true;
    }

    static void
    txBegin(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        m.settle(ctx);
        m.policy_.onTxBegin(m, ctx.tid, *op.ins);
        ++ctx.pc;
        m.quantumBreak_ = true;
    }

    static void
    txEnd(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        m.settle(ctx);
        m.policy_.onTxEnd(m, ctx.tid, *op.ins);
        ++ctx.pc;
        m.quantumBreak_ = true;
    }

    static void
    loopCut(Machine &m, ThreadContext &ctx, const DecodedOp &op)
    {
        m.settle(ctx);
        m.policy_.onLoopCut(m, ctx.tid, *op.ins);
        ++ctx.pc;
        m.quantumBreak_ = true;
    }
};

ExecFn
resolveHandler(const ir::Instruction &ins, bool constant_oob)
{
    using H = ExecHandlers;
    switch (ins.op) {
      case ir::OpCode::Load:
      case ir::OpCode::Store:
        if (constant_oob)
            return &H::memBad;
        break;
      case ir::OpCode::LockAcquire:
        return &H::lockAcquire;
      case ir::OpCode::LockRelease:
        return &H::lockRelease;
      case ir::OpCode::CondSignal:
        return &H::condSignal;
      case ir::OpCode::CondWait:
        return &H::condWait;
      case ir::OpCode::Barrier:
        return &H::barrier;
      case ir::OpCode::ThreadCreate:
        return &H::threadCreate;
      case ir::OpCode::ThreadJoin:
        return &H::threadJoin;
      case ir::OpCode::TxBegin:
        return &H::txBegin;
      case ir::OpCode::TxEnd:
        return &H::txEnd;
      case ir::OpCode::LoopCut:
        return &H::loopCut;
      default:
        break;
    }
    panic("resolveHandler: %s runs inline", ir::opName(ins.op));
}

Machine::Machine(const ir::Program &prog, const MachineConfig &cfg,
                 ExecutionPolicy &policy)
    : prog_(prog), cfg_(cfg), policy_(policy),
      htm_(cfg.htm, cfg.seed ^ 0x7c3a11edULL),
      det_(cfg.det, cfg.seed ^ 0xdecafbadULL),
      faults_(cfg.faults), checkCost_(cfg.cost.effectiveCheckCost()),
      schedRng_(cfg.seed),
      intrRng_(cfg.seed ^ 0x5ca1ab1eULL)
{
    if (!prog_.finalized())
        fatal("Machine: program not finalized");
    if (cfg_.htm.maxConcurrentTx == 0)
        fatal("Machine: need at least one hardware thread");

    decoded_ = decodeProgram(prog_, cfg_.cost);
    addrLimit_ = prog_.addrSpaceSize();

    contexts_.push_back(std::make_unique<ThreadContext>());
    ThreadContext &main = *contexts_.back();
    main.tid = 0;
    main.func = prog_.entry();
    main.rng = Rng(threadSeed(cfg_.seed, 0));
    bindCode(main);
    live_ = 1;
    enrollRunnable(main);
    if (cfg_.recordTimeline)
        tel_.flight.enableTimeline();
    if (cfg_.recordFlight)
        tel_.flight.enableRing();

    // Intern the machine's hot-path metrics once; step-loop updates
    // are then plain vector indexing (no string map lookups).
    auto &reg = tel_.registry;
    met_.rollbacks = reg.counter("machine.rollbacks");
    met_.interruptAborts = reg.counter("machine.interrupt_aborts");
    met_.retryAborts = reg.counter("machine.retry_aborts");
    met_.syscalls = reg.counter("machine.syscalls");
    met_.threadsCreated = reg.counter("machine.threads_created");
    met_.deadlocks = reg.counter("machine.deadlocks");
    met_.steps = reg.gauge("machine.steps");
    met_.truncated = reg.gauge("machine.truncated");
    met_.txCost = reg.histogram("tx.cost.committed");
    met_.txWasted = reg.histogram("tx.cost.wasted");
}

void
Machine::bindCode(ThreadContext &ctx)
{
    const DecodedFunction &fn = decoded_.funcs[ctx.func];
    ctx.code = fn.data();
    ctx.codeLen = static_cast<uint32_t>(fn.size());
}

void
Machine::commitTx(Tid t)
{
    htm_.commit(t);
    ThreadContext &ctx = *contexts_[t];
    for (const auto &[granule, value] : ctx.txStores)
        mem_.store(granule << mem::kGranuleBits, value);
    ctx.txStores.clear();
    tel_.registry.observe(met_.txCost, ctx.baseSinceTxBegin);
}

void
Machine::rollback(Tid t, Bucket reason)
{
    ThreadContext &ctx = *contexts_[t];
    if (!ctx.snap.valid)
        panic("Machine::rollback: thread %u has no snapshot", t);
    // Speculative stores die with the transaction.
    ctx.txStores.clear();
    // Reclassify the doomed transaction's application work as abort
    // overhead of the given kind (the region re-executes and pays its
    // base cost again, so total Base stays equal to the native run).
    uint64_t wasted = ctx.baseSinceTxBegin;
    if (wasted > 0) {
        buckets_[static_cast<size_t>(Bucket::Base)] -= wasted;
        buckets_[static_cast<size_t>(reason)] += wasted;
    }
    ctx.baseSinceTxBegin = 0;
    ctx.restoreSnapshot();
    addCost(t, cfg_.cost.rollbackCost, reason);
    tel_.registry.add(met_.rollbacks);
    tel_.registry.observe(met_.txWasted, wasted);
}

ir::InstrId
Machine::currentSite(Tid t) const
{
    const ThreadContext &ctx = *contexts_[t];
    const auto &body = prog_.function(ctx.func).body;
    return ctx.pc < body.size() ? body[ctx.pc].id : ir::kNoInstr;
}

void
Machine::enrollRunnable(ThreadContext &ctx)
{
    runnablePos_.resize(contexts_.size(), kNoPos);
    ctx.state = ThreadState::Runnable;
    runnablePos_[ctx.tid] = static_cast<uint32_t>(runnable_.size());
    runnable_.push_back(ctx.tid);
}

void
Machine::makeRunnable(ThreadContext &ctx)
{
    if (ctx.state == ThreadState::Runnable)
        return;
    ctx.state = ThreadState::Runnable;
    runnablePos_[ctx.tid] = static_cast<uint32_t>(runnable_.size());
    runnable_.push_back(ctx.tid);
}

void
Machine::makeUnrunnable(ThreadContext &ctx, ThreadState to)
{
    if (ctx.state == ThreadState::Runnable) {
        uint32_t pos = runnablePos_[ctx.tid];
        Tid last = runnable_.back();
        runnable_[pos] = last;
        runnablePos_[last] = pos;
        runnable_.pop_back();
        runnablePos_[ctx.tid] = kNoPos;
    }
    ctx.state = to;
    quantumBreak_ = true;
}

Tid
Machine::pickRunnable()
{
    const size_t n = runnable_.size();
    if (n == 0)
        return kNoTid;
    // Skip the RNG draw when the choice is forced (single-thread
    // phases: program prologue/epilogue, solo slow regions).
    return runnable_[n == 1 ? 0 : schedRng_.below(n)];
}

void
Machine::captureUnfinishedThreads()
{
    for (const auto &slot : contexts_) {
        const ThreadContext &ctx = *slot;
        if (ctx.state == ThreadState::Finished)
            continue;
        const auto &fn = prog_.function(ctx.func);
        std::string where = ctx.pc < fn.body.size()
            ? fn.name + ":" + std::to_string(ctx.pc) + " " +
                  ir::formatInstr(fn.body[ctx.pc])
            : fn.name + ":<end>";
        error_.threads.push_back({ctx.tid, ctx.state, where});
    }
}

void
Machine::reportDeadlock()
{
    warn("deadlock: no runnable threads (%u live)", live_);
    error_.kind = RunError::Kind::Deadlock;
    captureUnfinishedThreads();
    for (const auto &info : error_.threads)
        warn("  thread %u state=%d at %s", info.tid,
             static_cast<int>(info.state), info.where.c_str());
    tel_.registry.add(met_.deadlocks);
    tel_.flight.note(0, telemetry::FrKind::RunEdge, steps_, ~0u, live_,
                     telemetry::FrRunEdge::Deadlock);
}

void
Machine::truncateRun()
{
    // Runaway guard: hand back a truncated result instead of killing
    // the process, so harnesses can inspect it.
    warn("Machine: exceeded %llu steps (livelock?); truncating run",
         static_cast<unsigned long long>(cfg_.maxSteps));
    error_.kind = RunError::Kind::Truncated;
    captureUnfinishedThreads();
    tel_.registry.set(met_.truncated, 1);
    tel_.flight.note(0, telemetry::FrKind::RunEdge, steps_, ~0u, 0,
                     telemetry::FrRunEdge::Truncated);
}

void
Machine::recordStop()
{
    error_.kind = stopRequest_;
    captureUnfinishedThreads();
    tel_.flight.note(0, telemetry::FrKind::RunEdge, steps_, ~0u,
                     static_cast<uint64_t>(stopRequest_),
                     telemetry::FrRunEdge::StopRequest);
}

void
Machine::publishCounters()
{
    // The HTM engine, line directory and detector bump plain integers
    // (their access paths are too hot for even an interned-id
    // update); transfer them into the registry once, here.
    auto &reg = tel_.registry;
    const htm::HtmCounters &hc = htm_.counters();
    reg.addNamed("htm.begins", hc.begins);
    reg.addNamed("htm.commits", hc.commits);
    reg.addNamed("htm.aborts.conflict", hc.abortsConflict);
    reg.addNamed("htm.aborts.capacity", hc.abortsCapacity);
    reg.addNamed("htm.aborts.unknown", hc.abortsUnknown);
    reg.addNamed("htm.aborts.other", hc.abortsOther);

    const htm::LineDirectory &dir = *htm_.lineDirectory();
    const htm::LineDirStats &ds = dir.stats();
    reg.set(reg.gauge("htm.dir.capacity"), dir.capacity());
    reg.set(reg.gauge("htm.dir.occupied_peak"), ds.occupiedPeak);
    reg.addNamed("htm.dir.epoch_clears", ds.epochClears);
    reg.addNamed("htm.dir.line_walk_clears", ds.lineWalkClears);
    reg.addNamed("htm.dir.rehashes", ds.rehashes);
    reg.mergeHistogram(reg.histogram("htm.dir.probe_len"), ds.probeLen);
    reg.addNamed("htm.dir.probes", ds.probeLen.count());

    const detector::DetCounters &dc = det_.counters();
    reg.addNamed("detector.reads", dc.reads);
    reg.addNamed("detector.writes", dc.writes);
    reg.addNamed("detector.race_hits", dc.raceHits);
    reg.addNamed("detector.read_epoch_sufficient",
                 dc.readEpochSufficient);
    reg.addNamed("detector.read_vc_promoted", dc.readVcPromoted);
    reg.addNamed("detector.evictions", dc.evictions);
    reg.addNamed("detector.replay_checks", dc.replayChecks);
}

void
Machine::badAccess(Tid t, ir::Addr a)
{
    // Structured error instead of process death: campaign and service
    // workers must survive malformed workloads.
    warn("Machine: thread %u access 0x%llx beyond address space "
         "0x%llx",
         t, static_cast<unsigned long long>(a),
         static_cast<unsigned long long>(addrLimit_));
    requestStop(RunError::Kind::BadAccess);
}

const RunError &
Machine::run()
{
    // A second run would re-root thread 0 and publish every counter
    // into the registry twice.
    if (ran_)
        panic("Machine::run: a Machine runs once; build a new one");
    ran_ = true;
    error_ = RunError{};
    observeAccesses_ = policy_.observesAccesses();
    policy_.onRunStart(*this);
    det_.rootThread(0);
    runDecoded();
    error_.stepsExecuted = steps_;
    // Abnormal end: drain every thread's flight window into a capture
    // so the structured error carries its own event context.
    if (error_.kind != RunError::Kind::None &&
        tel_.flight.ringEnabled() &&
        tel_.forensics.size() < telemetry::Telemetry::kMaxForensics) {
        telemetry::ForensicsCapture cap;
        cap.trigger = runErrorKindName(error_.kind);
        cap.step = steps_;
        for (uint32_t tid = 0; tid < tel_.flight.threads(); ++tid)
            if (tel_.flight.offered(tid) > 0)
                cap.threads.push_back(
                    telemetry::drainThread(tel_.flight, tid));
        tel_.forensics.push_back(std::move(cap));
    }
    policy_.onRunEnd(*this);
    tel_.registry.set(met_.steps, steps_);
    publishCounters();
    return error_;
}

/**
 * The quantum loop. One scheduler pick runs a quantum of up to
 * kSchedQuantum decoded ops back-to-back; the quantum ends early at
 * every point where another thread's progress is observable (sync
 * operations, transaction boundaries, memory accesses while any
 * transaction is in flight, thread lifecycle ops) so detection-
 * relevant interleavings keep per-op granularity.
 *
 * Ops run as the cases of one switch on DecodedOp::kind. The simple
 * ops (nop, compute, syscall, loop begin/end, loads and stores by
 * address shape) run inline; the rest (OpKind::Handler) call their
 * out-of-line handler, which ends the quantum. The running thread's
 * pc, Rng, pending Base cost and the step count live in locals for
 * the whole quantum, so a Native quantum touches memory only for its
 * loop frames and stored granules. They are written back (spill)
 * before every policy hook, out-of-line handler, badAccess, settle
 * and finishThread, and read again (fill) after, because hooks may
 * read them or roll the thread back.
 *
 * Paid once per quantum: the pick, the maxSteps clamp, the phase and
 * in-transaction lookup, the policy's beforeStep, the Base-cost
 * booking (settle()), the syscall counter and the phase-profiler
 * note. Paid per step: the fault-episode advance (only with a fault
 * plan), interrupt injection (transactional quanta only), the fetch,
 * the out-of-line test, the switch and the break and bound tests.
 * Zero injection rates draw no RNG (Rng::chance(0) returns before
 * drawing), so no separate lane is needed without them.
 *
 * Two invariants make this exact. A quantum has one phase: a quantum
 * that ends without a forced break ends in the phase it began in
 * (checked, panics otherwise). Hooks see settled cost: pending Base
 * cost is booked before every policy hook, so every mid-run reader
 * sees the per-op totals.
 */
void
Machine::runDecoded()
{
    const bool faulty = !faults_.empty();
    const bool observe = observeAccesses_;
    const ir::Addr limit = addrLimit_;
    while (live_ > 0) {
        Tid t = pickRunnable();
        if (t == kNoTid) {
            reportDeadlock();
            return;
        }
        schedHash_ = mixHash(schedHash_, steps_, t);
        if (steps_ >= cfg_.maxSteps) {
            truncateRun();
            return;
        }
        ThreadContext &ctx = *contexts_[t];
        // Clamp the quantum to the runaway guard. A quantum cut short
        // by the guard alone truncates the run where it stops, with
        // no further pick (exactly where a per-step check trips).
        const uint64_t room = cfg_.maxSteps - steps_;
        bool guard_cut = room < kSchedQuantum;
        // The quantum runs steps steps_ + 1 through last_step at most.
        uint64_t last_step = steps_ + (guard_cut ? room : kSchedQuantum);
        // Every op that changes the thread's transaction state or path
        // forces a quantum break, so these hold for the whole quantum.
        const bool in_tx = htm_.inTx(t);
        quantumInTx_ = in_tx;
        quantumPhase_ = phaseFor(ctx, in_tx);
        const uint64_t first_step = steps_;
        // A stop requested outside any quantum (e.g. from onRunStart)
        // still ends the run after one op.
        quantumBreak_ = stopRequest_ != RunError::Kind::None;

        // The quantum's first step. A fault-episode edge is a forced
        // preemption point: its modifiers apply to this op, then
        // re-pick. The policy's pre-step hook runs once per quantum
        // (documented contract since quantum batching): a true return
        // consumes the step and ends the quantum. Nothing is pending
        // yet, so the hook sees settled cost.
        uint64_t steps = ++steps_;
        if (faulty && advanceFaults()) {
            last_step = steps;
            guard_cut = false;
        }
        const bool consumed =
            (in_tx && injectAbort(t)) || policy_.beforeStep(*this, t);

        // The running thread's state, held in locals for the quantum.
        uint32_t pc = ctx.pc;
        Rng rng = ctx.rng;
        uint64_t pending = pendingBase_;
        uint64_t syscalls = 0;
        const DecodedOp *const code = ctx.code;
        const uint32_t code_len = ctx.codeLen;
        // Read once the pre-step hook has run (it may abort every
        // transaction in flight). Only TxBegin raises the in-flight
        // count, and TxBegin breaks the quantum, so a quantum that
        // starts with no transaction in flight has none until it
        // ends. One that starts with some ends at its first access.
        const bool tx_in_flight = htm_.inFlightCount() > 0;
        bool brk = quantumBreak_;
        bool finished = false;
        // The locals are already in the context (an out-of-line op
        // ended the quantum).
        bool spilled = false;
        // The quantum ran all its steps without a forced break.
        bool ran_out = false;
        // Per-step work beyond the op itself.
        const bool step_checks = faulty || in_tx;

        auto spill = [&] {
            ctx.pc = pc;
            ctx.rng = rng;
            pendingBase_ = pending;
            steps_ = steps;
        };
        auto fill = [&] {
            pc = ctx.pc;
            rng = ctx.rng;
            pending = pendingBase_;
            brk = brk || quantumBreak_;
        };
        auto loopIndex = [&](const DecodedOp &op) {
            return ctx.loops[ctx.loops.size() - 1 - op.loopDepth].index;
        };
        // One load or store of @p addr; @p bounded: the address was
        // computed at run time and needs the address-space check
        // (constant addresses are checked at decode).
        auto access = [&](const DecodedOp &op, ir::Addr addr,
                          bool bounded, bool write)
            __attribute__((always_inline)) {
            pending += op.cost;
            if (bounded && limit != 0 && addr >= limit) {
                spill();
                badAccess(t, addr);
                fill();
                return;
            }
            // Any in-flight transaction makes memory order observable
            // to conflict detection: end the quantum so transactional
            // phases interleave per access, exactly like per-step
            // scheduling.
            brk = brk || tx_in_flight;
            // A policy that does not observe accesses (Native) gets no
            // hook call, so its access neither settles nor spills.
            if (observe) {
                spill();
                settle(ctx);
                const bool kept =
                    policy_.onMemAccess(*this, t, *op.ins, addr, write);
                fill();
                if (!kept) {
                    // The access capacity/conflict-aborted this
                    // thread's own transaction; the context has been
                    // rolled back.
                    brk = true;
                    return;
                }
            }
            if (write) {
                // Stores accumulate into their granule; inside a
                // transaction they go to the speculative buffer. A
                // quantum that started outside a transaction stays
                // outside it (tx begin ends the quantum).
                if (!in_tx && ctx.txStores.empty()) {
                    mem_.add(addr, op.arg0 + 1);
                } else {
                    uint64_t granule = mem::granuleOf(addr);
                    auto it = ctx.txStores.find(granule);
                    uint64_t old = it != ctx.txStores.end()
                        ? it->second
                        : mem_.load(addr);
                    uint64_t value = old + op.arg0 + 1;
                    if (htm_.inTx(t))
                        ctx.txStores[granule] = value;
                    else
                        mem_.store(addr, value);
                }
            }
            ++pc;
        };
        auto strided = [&](const DecodedOp &op) {
            return op.base + op.threadStride * t;
        };
        auto looped = [&](const DecodedOp &op) {
            return strided(op) + op.loopStride * loopIndex(op);
        };
        auto randomized = [&](const DecodedOp &op) {
            ir::Addr addr = strided(op);
            if (op.loopStride != 0)
                addr += op.loopStride * loopIndex(op);
            return addr + op.randomStride * rng.below(op.randomCount);
        };

        while (!consumed) {
            if (pc >= code_len) {
                finished = true;
                break;
            }
            const DecodedOp &op = code[pc];
            // Out-of-line ops are tested for before the switch: most
            // TxRace quanta start with one, and a separate compare
            // predicts better than the shared jump. Every one of them
            // is a forced preemption point, so the quantum ends with
            // it and the state it leaves in the context is final.
            if (op.kind == OpKind::Handler) {
                spill();
                op.fn(*this, ctx, op);
                if (!quantumBreak_)
                    panic("Machine: %s did not end its quantum",
                          ir::opName(op.ins->op));
                spilled = true;
                break;
            }
            switch (op.kind) {
              case OpKind::Nop:
                ++pc;
                break;
              case OpKind::Compute:
                pending += op.cost;
                ++pc;
                break;
              case OpKind::Syscall:
                pending += op.cost;
                ++syscalls;
                ++pc;
                break;
              case OpKind::LoopBegin: {
                uint64_t trips = op.arg0;
                if (op.arg1 > 0)
                    trips += rng.below(op.arg1 + 1);
                if (trips == 0) {
                    // Dynamically empty loop: skip past the LoopEnd.
                    pc = op.jump;
                } else {
                    ctx.loops.push_back(LoopFrame{pc, 0, trips, 0});
                    ++pc;
                }
                break;
              }
              case OpKind::LoopEnd: {
                if (ctx.loops.empty())
                    panic("Machine: LoopEnd with empty loop stack");
                LoopFrame &frame = ctx.loops.back();
                if (++frame.index < frame.total) {
                    pc = frame.beginPc + 1;
                } else {
                    ctx.loops.pop_back();
                    ++pc;
                }
                break;
              }
              case OpKind::LoadConstant:
                access(op, op.base, false, false);
                break;
              case OpKind::StoreConstant:
                access(op, op.base, false, true);
                break;
              case OpKind::LoadThreadStrided:
                access(op, strided(op), true, false);
                break;
              case OpKind::StoreThreadStrided:
                access(op, strided(op), true, true);
                break;
              case OpKind::LoadLoopIndexed:
                access(op, looped(op), true, false);
                break;
              case OpKind::StoreLoopIndexed:
                access(op, looped(op), true, true);
                break;
              case OpKind::LoadRandomized:
                access(op, randomized(op), true, false);
                break;
              case OpKind::StoreRandomized:
                access(op, randomized(op), true, true);
                break;
              case OpKind::Handler:
                break;  // run before the switch
            }
            if (brk)
                break;
            if (steps == last_step) {
                ran_out = true;
                break;
            }
            // The next step of the quantum.
            ++steps;
            if (step_checks) {
                if (faulty) {
                    steps_ = steps;
                    if (advanceFaults()) {
                        last_step = steps;
                        guard_cut = false;
                    }
                }
                if (in_tx) {
                    spill();
                    const bool aborted = injectAbort(t);
                    fill();
                    if (aborted)
                        break;  // the abort consumed this step
                }
            }
        }
        if (!spilled)
            spill();
        settle(ctx);
        if (finished)
            finishThread(t);
        if (syscalls != 0)
            tel_.registry.add(met_.syscalls, syscalls);
        // Every step of the quantum, consumed ones (aborts,
        // beforeStep) included, in the quantum's phase: the profiler
        // totals equal steps executed (the Figure-10 breakdown).
        tel_.phases.noteSteps(t, quantumPhase_, steps_ - first_step);
        if (ran_out) {
            if (phaseFor(ctx, htm_.inTx(t)) != quantumPhase_)
                panic("Machine: thread %u changed phase inside a "
                      "quantum without a forced break", t);
            if (guard_cut) {
                truncateRun();
                return;
            }
        }
        if (stopRequest_ != RunError::Kind::None) {
            recordStop();
            return;
        }
    }
}

bool
Machine::advanceFaults()
{
    const auto &transitions = faults_.advance(steps_);
    if (transitions.empty())
        return false;
    bool ways_changed = false;
    for (const fault::FaultTransition &tr : transitions) {
        const fault::FaultEpisode &ep = *tr.episode;
        tel_.registry.addNamed(tr.begin ? "fault.episodes_begun"
                                        : "fault.episodes_ended");
        tel_.registry.addNamed(std::string("fault.") +
                               fault::faultKindName(ep.kind) +
                               (tr.begin ? ".begin" : ".end"));
        tel_.flight.note(0, telemetry::FrKind::RunEdge, steps_, ~0u,
                         tr.index,
                         tr.begin ? telemetry::FrRunEdge::FaultBegin
                                  : telemetry::FrRunEdge::FaultEnd);
        if (ep.kind == fault::FaultKind::CapacityCliff)
            ways_changed = true;
    }
    if (ways_changed)
        htm_.setWaysPenalty(faults_.capacityWaysPenalty());
    return true;
}

bool
Machine::injectAbort(Tid t)
{
    // Timer-interrupt injection: OS preemption aborts an in-flight
    // transaction with an all-zero (unknown) status, more often when
    // the machine is oversubscribed (paper §8.2, Figure 8). Fault
    // episodes (interrupt storms, retry glitches) modulate the rates.
    double p = cfg_.interruptPerStep;
    if (runnable_.size() > kCores)
        p *= kOversubInterruptFactor;
    p = p * faults_.interruptMult() + faults_.interruptAdd();
    if (intrRng_.chance(p)) {
        settle(*contexts_[t]);
        htm_.abortTx(t, 0);
        tel_.registry.add(met_.interruptAborts);
        tel_.flight.note(
            t, telemetry::FrKind::TxAbort, steps_, currentSite(t),
            static_cast<uint64_t>(telemetry::FrAbort::Interrupt));
        policy_.onInterruptAbort(*this, t);
        return true;
    }
    double pr = faults_.retryAdd();
    if (pr > 0.0 && intrRng_.chance(pr)) {
        settle(*contexts_[t]);
        htm_.abortTx(t, htm::kAbortRetry);
        tel_.registry.add(met_.retryAborts);
        tel_.flight.note(
            t, telemetry::FrKind::TxAbort, steps_, currentSite(t),
            static_cast<uint64_t>(telemetry::FrAbort::Retry));
        policy_.onRetryAbort(*this, t);
        return true;
    }
    return false;
}

void
Machine::finishThread(Tid t)
{
    ThreadContext &ctx = *contexts_[t];
    policy_.onThreadExit(*this, t);
    makeUnrunnable(ctx, ThreadState::Finished);
    --live_;
    wakeJoinWaiters(t);
}

void
Machine::wakeJoinWaiters(Tid finished)
{
    auto it = joinWaiters_.find(finished);
    if (it == joinWaiters_.end())
        return;
    for (Tid w : it->second) {
        if (contexts_[w]->state == ThreadState::Blocked)
            makeRunnable(*contexts_[w]);
    }
    joinWaiters_.erase(it);
}

bool
Machine::joinReady(const ir::Instruction &ins, Tid t,
                   std::vector<Tid> &targets)
{
    targets.clear();
    if (ins.arg0 == ~0ull) {
        for (Tid s : spawned_)
            if (s != t)
                targets.push_back(s);
    } else if (ins.arg0 < spawned_.size()) {
        targets.push_back(spawned_[ins.arg0]);
    } else {
        return false;  // not spawned yet
    }
    for (Tid target : targets)
        if (contexts_[target]->state != ThreadState::Finished)
            return false;
    return true;
}

} // namespace txrace::sim
