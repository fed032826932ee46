/**
 * @file
 * The hook interface between the interpreter and a detection tool.
 *
 * The interpreter executes application semantics (control flow, sync
 * blocking, costs); an ExecutionPolicy implements what a tool does at
 * each interesting point. core/ provides the policies: Native (no
 * tool), TSan (always-on happens-before checking), TSan+sampling, and
 * the TxRace two-phase runtime in its three loop-cut variants.
 */

#ifndef TXRACE_SIM_POLICY_HH
#define TXRACE_SIM_POLICY_HH

#include <vector>

#include "ir/program.hh"
#include "support/types.hh"

namespace txrace::sim {

class Machine;

/** Tool-side hooks invoked by the Machine. All default to no-ops. */
class ExecutionPolicy
{
  public:
    virtual ~ExecutionPolicy() = default;

    /** The run is about to start; the machine is fully constructed. */
    virtual void onRunStart(Machine &) {}

    /** All threads finished. */
    virtual void onRunEnd(Machine &) {}

    /** Thread @p t ran off the end of its function. Fires before the
     *  thread is marked finished; the policy must close any open
     *  transaction. */
    virtual void onThreadExit(Machine &, Tid) {}

    /**
     * Called once per scheduler quantum, on its first step, before the
     * instruction fetch. Returning true consumes the step and ends the
     * quantum (used by TxRace for the deferred TxFail write after a
     * conflict abort); returning false must leave the thread's phase
     * unchanged.
     */
    virtual bool beforeStep(Machine &, Tid) { return false; }

    /** TxBegin instruction. */
    virtual void onTxBegin(Machine &, Tid, const ir::Instruction &) {}

    /** TxEnd instruction. */
    virtual void onTxEnd(Machine &, Tid, const ir::Instruction &) {}

    /** LoopCut instruction (end of an instrumented loop body). */
    virtual void onLoopCut(Machine &, Tid, const ir::Instruction &) {}

    /** Whether this policy type wants onMemAccess at all. Asked once
     *  per run; a policy that says no (Native) gets no call and its
     *  accesses take the machine's plain load/store path. */
    virtual bool observesAccesses() const { return true; }

    /**
     * A Load/Store with its resolved address. Return false if the
     * access aborted the executing thread's own transaction (the
     * instruction then does not complete; the thread has been rolled
     * back).
     */
    virtual bool
    onMemAccess(Machine &, Tid, const ir::Instruction &, ir::Addr,
                bool /* is_write */)
    {
        return true;
    }

    /**
     * A non-blocking sync effect completed for @p t: lock acquired or
     * released, condvar posted, or a wait satisfied. Barriers and
     * thread lifecycle have dedicated hooks.
     */
    virtual void
    onSyncPerformed(Machine &, Tid, const ir::Instruction &)
    {
    }

    /** @p child was created by @p parent (before child's first step). */
    virtual void onThreadCreated(Machine &, Tid parent, Tid child)
    {
        (void)parent;
        (void)child;
    }

    /** @p joiner observed @p joined's termination. */
    virtual void onThreadJoined(Machine &, Tid joiner, Tid joined)
    {
        (void)joiner;
        (void)joined;
    }

    /** A barrier released; @p participants includes every arriver. */
    virtual void
    onBarrierRelease(Machine &, const std::vector<Tid> &participants)
    {
        (void)participants;
    }

    /**
     * A timer interrupt hit @p t while it was transactional. The
     * machine has already aborted the transaction in the HTM engine
     * (unknown status) — the policy must roll the thread back and
     * decide what to do next.
     */
    virtual void onInterruptAbort(Machine &, Tid) {}

    /**
     * A transient glitch aborted @p t's transaction with only the
     * RETRY bit set (no conflict) — the §4.2 case where retrying in
     * place is expected to succeed. The engine-side abort already
     * happened; the policy rolls back and retries or falls back.
     */
    virtual void onRetryAbort(Machine &, Tid) {}
};

} // namespace txrace::sim

#endif // TXRACE_SIM_POLICY_HH
