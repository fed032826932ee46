#include "core/policies.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;

void
RaceTmPolicy::onRunStart(Machine &m)
{
    auto &reg = m.tel().registry;
    met_.txBegins = reg.counter("tx.begins");
    met_.txCommitted = reg.counter("tx.committed");
    met_.abortConflict = reg.counter("tx.abort.conflict");
    met_.abortCapacity = reg.counter("tx.abort.capacity");
    met_.abortUnknown = reg.counter("tx.abort.unknown");
}

void
RaceTmPolicy::onTxBegin(Machine &m, Tid t, const ir::Instruction &)
{
    if (m.liveThreads() <= 1 || !m.htm().canBegin())
        return;  // unmonitored, like TxRace's elision / hw limit
    m.addCost(t, m.config().cost.txBeginCost, Bucket::Txn);
    m.htm().begin(t);
    m.context(t).takeSnapshot(m.context(t).pc + 1);
    m.tel().registry.add(met_.txBegins);
}

void
RaceTmPolicy::onTxEnd(Machine &m, Tid t, const ir::Instruction &)
{
    if (!m.htm().inTx(t))
        return;
    m.commitTx(t);
    m.addCost(t, m.config().cost.txEndCost, Bucket::Txn);
    m.tel().registry.add(met_.txCommitted);
    m.context(t).snap.valid = false;
}

void
RaceTmPolicy::onThreadExit(Machine &m, Tid t)
{
    if (m.htm().inTx(t)) {
        m.commitTx(t);
        m.tel().registry.add(met_.txCommitted);
    }
}

bool
RaceTmPolicy::onMemAccess(Machine &m, Tid t, const ir::Instruction &ins,
                          ir::Addr addr, bool is_write)
{
    auto res = m.htm().access(t, addr, is_write);
    // The extended hardware attributes each conflict directly: the
    // victim's debug bits name its instruction for the line, and we
    // are the requester. Report at cache-line granularity — which is
    // exactly why RaceTM-style reporting carries false-sharing false
    // positives that TxRace's software slow path filters out.
    for (Tid v : res.victims) {
        m.tel().registry.add(met_.abortConflict);
        ir::InstrId victim_instr = m.htm().lastConflictVictimInstr(v);
        if (victim_instr != ir::kNoInstr && ins.instrumented) {
            races_.record(victim_instr, ins.id,
                          is_write ? detector::RaceKind::WriteWrite
                                   : detector::RaceKind::WriteRead,
                          addr);
        }
        // The victim simply retries its region untransactionalized
        // (RaceTM has no software fallback); roll it back and let it
        // re-run bare.
        m.rollback(v, Bucket::Conflict);
        m.context(v).snap.valid = false;
    }
    if (res.selfCapacity) {
        // No software path to fall back to: run the region bare.
        m.tel().registry.add(met_.abortCapacity);
        m.rollback(t, Bucket::Capacity);
        m.context(t).snap.valid = false;
        return false;
    }
    m.htm().noteAccessInstr(t, addr, ins.id);
    return true;
}

void
RaceTmPolicy::onInterruptAbort(Machine &m, Tid t)
{
    m.tel().registry.add(met_.abortUnknown);
    m.rollback(t, Bucket::Unknown);
    m.context(t).snap.valid = false;
}

} // namespace txrace::core
