#include "core/policies.hh"

#include "support/log.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;

TsanPolicy::TsanPolicy(double sample_rate, uint64_t seed)
    : sampleRate_(sample_rate), rng_(seed)
{
    if (sample_rate < 0.0 || sample_rate > 1.0)
        fatal("TsanPolicy: sample rate %f out of [0,1]", sample_rate);
}

void
TsanPolicy::onRunStart(Machine &m)
{
    checkCost_ = m.config().cost.effectiveCheckCost();
}

void
TsanPolicy::onThreadCreated(Machine &m, Tid parent, Tid child)
{
    m.det().threadCreated(parent, child);
    m.addCost(parent, m.config().cost.syncTrackCost, Bucket::Check);
}

void
TsanPolicy::onThreadJoined(Machine &m, Tid joiner, Tid joined)
{
    m.det().threadJoined(joiner, joined);
    m.addCost(joiner, m.config().cost.syncTrackCost, Bucket::Check);
}

void
TsanPolicy::onSyncPerformed(Machine &m, Tid t,
                            const ir::Instruction &ins)
{
    auto &det = m.det();
    switch (ins.op) {
      case ir::OpCode::LockAcquire:
        det.lockAcquire(t, ins.arg0);
        break;
      case ir::OpCode::LockRelease:
        det.lockRelease(t, ins.arg0);
        break;
      case ir::OpCode::CondSignal:
        det.condSignal(t, ins.arg0);
        break;
      case ir::OpCode::CondWait:
        det.condWait(t, ins.arg0);
        break;
      default:
        panic("TsanPolicy: unexpected sync op %s", opName(ins.op));
    }
    m.addCost(t, m.config().cost.syncTrackCost, Bucket::Check);
}

void
TsanPolicy::onBarrierRelease(Machine &m, const std::vector<Tid> &parts)
{
    m.det().barrierRelease(parts);
    for (Tid p : parts)
        m.addCost(p, m.config().cost.syncTrackCost, Bucket::Check);
}

bool
TsanPolicy::onMemAccess(Machine &m, Tid t, const ir::Instruction &ins,
                        ir::Addr addr, bool is_write)
{
    if (!ins.instrumented)
        return true;
    if (sampleRate_ >= 1.0 || rng_.chance(sampleRate_)) {
        // Slow-path stall fault episodes inflate the check cost for
        // the software detector no matter which policy runs it.
        uint64_t check = checkCost_;
        double stall = m.faults().slowPathCostMult();
        if (stall > 1.0)
            check = static_cast<uint64_t>(
                static_cast<double>(check) * stall);
        m.addCost(t, check, Bucket::Check);
        if (is_write)
            m.det().write(t, addr, ins.id);
        else
            m.det().read(t, addr, ins.id);
    } else {
        // Unsampled accesses still pay the sampling branch.
        m.addCost(t, 1, Bucket::Check);
    }
    return true;
}

} // namespace txrace::core
