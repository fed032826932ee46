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
    met_.abortRetry = reg.counter("tx.abort.retry");
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
RaceTmPolicy::clearDebugBits(Tid t)
{
    if (t < lineInstr_.size())
        lineInstr_[t].clear();
}

void
RaceTmPolicy::rerunBare(Machine &m, Tid t, Bucket reason)
{
    clearDebugBits(t);
    m.rollback(t, reason);
    m.context(t).snap.valid = false;
}

void
RaceTmPolicy::onTxEnd(Machine &m, Tid t, const ir::Instruction &)
{
    if (!m.htm().inTx(t))
        return;
    m.commitTx(t);
    clearDebugBits(t);
    m.addCost(t, m.config().cost.txEndCost, Bucket::Txn);
    m.tel().registry.add(met_.txCommitted);
    m.context(t).snap.valid = false;
}

void
RaceTmPolicy::onThreadExit(Machine &m, Tid t)
{
    if (m.htm().inTx(t)) {
        m.commitTx(t);
        clearDebugBits(t);
        m.tel().registry.add(met_.txCommitted);
    }
}

bool
RaceTmPolicy::onMemAccess(Machine &m, Tid t, const ir::Instruction &ins,
                          ir::Addr addr, bool is_write)
{
    auto res = m.htm().access(t, addr, is_write);
    const uint64_t line = mem::lineOf(addr);
    // The extended hardware attributes each conflict directly: the
    // victim's debug bits name its instruction for the line, and we
    // are the requester. Report at cache-line granularity — which is
    // exactly why RaceTM-style reporting carries false-sharing false
    // positives that TxRace's software slow path filters out. A
    // victim that only read the line conflicts only with a store.
    for (Tid v : res.victims) {
        m.tel().registry.add(met_.abortConflict);
        LineBits victim;
        if (v < lineInstr_.size()) {
            auto it = lineInstr_[v].find(line);
            if (it != lineInstr_[v].end())
                victim = it->second;
        }
        if (victim.instr != ir::kNoInstr && ins.instrumented) {
            using detector::RaceKind;
            races_.record(victim.instr, ins.id,
                          !victim.wrote ? RaceKind::ReadWrite
                          : is_write    ? RaceKind::WriteWrite
                                        : RaceKind::WriteRead,
                          addr);
        }
        rerunBare(m, v, Bucket::Conflict);
    }
    if (res.selfCapacity) {
        m.tel().registry.add(met_.abortCapacity);
        rerunBare(m, t, Bucket::Capacity);
        return false;
    }
    if (m.htm().inTx(t)) {
        if (t >= lineInstr_.size())
            lineInstr_.resize(t + 1);
        LineBits &bits = lineInstr_[t][line];
        if (is_write || !bits.wrote)
            bits.instr = ins.id;
        bits.wrote |= is_write;
    }
    return true;
}

void
RaceTmPolicy::onInterruptAbort(Machine &m, Tid t)
{
    m.tel().registry.add(met_.abortUnknown);
    rerunBare(m, t, Bucket::Unknown);
}

void
RaceTmPolicy::onRetryAbort(Machine &m, Tid t)
{
    // The glitch already killed the transaction in the engine; its
    // buffered stores die with it, and the region re-runs bare.
    m.tel().registry.add(met_.abortRetry);
    rerunBare(m, t, Bucket::Txn);
}

} // namespace txrace::core
