#include "core/policies.hh"

#include "support/log.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;

bool
HbTrackingPolicy::tracked(Machine &m, bool yes, uint64_t ops)
{
    if (!yes && untracked_ != telemetry::kNoMetric)
        m.tel().registry.add(untracked_, ops);
    return yes;
}

void
HbTrackingPolicy::onThreadCreated(Machine &m, Tid parent, Tid child)
{
    if (!tracked(m, hb_.checks))
        return;
    m.det().threadCreated(parent, child);
    m.addCost(parent, m.config().cost.syncTrackCost, bucket_);
}

void
HbTrackingPolicy::onThreadJoined(Machine &m, Tid joiner, Tid joined)
{
    if (!tracked(m, hb_.checks))
        return;
    m.det().threadJoined(joiner, joined);
    m.addCost(joiner, m.config().cost.syncTrackCost, bucket_);
}

void
HbTrackingPolicy::onSyncPerformed(Machine &m, Tid t,
                                  const ir::Instruction &ins)
{
    if (!tracked(m, hb_.tracks(ins)))
        return;
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
        panic("HbTrackingPolicy: unexpected sync op %s", opName(ins.op));
    }
    m.addCost(t, m.config().cost.syncTrackCost, bucket_);
}

void
HbTrackingPolicy::onBarrierRelease(Machine &m,
                                   const std::vector<Tid> &parts)
{
    if (!tracked(m, hb_.checks, parts.size()))
        return;
    m.det().barrierRelease(parts);
    for (Tid p : parts)
        m.addCost(p, m.config().cost.syncTrackCost, bucket_);
}

TsanPolicy::TsanPolicy(double sample_rate, uint64_t seed)
    : HbTrackingPolicy(Bucket::Check), sampleRate_(sample_rate),
      rng_(seed)
{
    if (sample_rate < 0.0 || sample_rate > 1.0)
        fatal("TsanPolicy: sample rate %f out of [0,1]", sample_rate);
}

bool
TsanPolicy::onMemAccess(Machine &m, Tid t, const ir::Instruction &ins,
                        ir::Addr addr, bool is_write)
{
    if (!ins.instrumented)
        return true;
    if (sampleRate_ >= 1.0 || rng_.chance(sampleRate_)) {
        m.addCost(t, m.checkCost(), Bucket::Check);
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
