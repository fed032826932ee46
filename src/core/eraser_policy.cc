#include "core/policies.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;

void
EraserPolicy::onRunEnd(Machine &m)
{
    // Same end-of-run transfer as the machine's own engine counters.
    auto &reg = m.tel().registry;
    const detector::LocksetCounters &c = lockset_.counters();
    reg.addNamed("lockset.reads", c.reads);
    reg.addNamed("lockset.writes", c.writes);
    reg.addNamed("lockset.warnings", c.warnings);
}

void
EraserPolicy::onSyncPerformed(Machine &m, Tid t,
                              const ir::Instruction &ins)
{
    switch (ins.op) {
      case ir::OpCode::LockAcquire:
        lockset_.lockAcquire(t, ins.arg0);
        break;
      case ir::OpCode::LockRelease:
        lockset_.lockRelease(t, ins.arg0);
        break;
      default:
        // Condvars (and barriers, handled elsewhere) carry no lockset
        // meaning: Eraser's blind spot.
        break;
    }
    m.addCost(t, m.config().cost.syncTrackCost, Bucket::Check);
}

bool
EraserPolicy::onMemAccess(Machine &m, Tid t, const ir::Instruction &ins,
                          ir::Addr addr, bool is_write)
{
    if (!ins.instrumented)
        return true;
    // Lockset checks are cheaper than vector-clock comparisons; the
    // classic Eraser overhead ratio vs happens-before is roughly 1/2.
    m.addCost(t, std::max<uint64_t>(
                     1, m.config().cost.effectiveCheckCost() / 2),
              Bucket::Check);
    if (is_write)
        lockset_.write(t, addr, ins.id);
    else
        lockset_.read(t, addr, ins.id);
    return true;
}

} // namespace txrace::core
