#include "core/governor.hh"

#include <algorithm>

#include "core/budget.hh"
#include "support/log.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;
using telemetry::FrControl;
using telemetry::FrKind;

void
FallbackGovernor::bindMetrics(telemetry::MetricRegistry &reg)
{
    reg_ = &reg;
    met_.failedProbes = reg.counter("txrace.gov.failed_probes");
    met_.demotions = reg.counter("txrace.gov.demotions");
    met_.probeSuccesses = reg.counter("txrace.gov.probe_successes");
    met_.reprobations = reg.counter("txrace.gov.reprobations");
    met_.livelockEscalations =
        reg.counter("txrace.gov.livelock_escalations");
    met_.backoffRetries = reg.counter("txrace.gov.backoff_retries");
    met_.stallPromotions = reg.counter("txrace.gov.stall_promotions");
    met_.budgetVetoes = reg.counter("txrace.gov.budget_vetoes");
}

FallbackGovernor::ThreadGov &
FallbackGovernor::state(Tid t)
{
    if (t >= threads_.size())
        threads_.resize(t + 1);
    ThreadGov &g = threads_[t];
    if (!g.initialized) {
        uint64_t s = seed_ ^ 0x60bea40aULL;
        g.sampleRng = Rng(splitmix64(s) ^
                          (0x9e3779b97f4a7c15ULL * (t + 1)));
        g.initialized = true;
    }
    return g;
}

uint64_t
FallbackGovernor::now(Machine &m, Tid t) const
{
    // Windows are measured in the thread's own virtual time: a thread
    // parked on a lock does not "cool down" its abort window merely
    // because wall-clock passed.
    return m.context(t).myCost;
}

uint32_t
FallbackGovernor::level(Tid t) const
{
    return t < threads_.size() ? threads_[t].level : kFast;
}

void
FallbackGovernor::demote(Machine &m, Tid t, uint32_t to,
                         uint8_t why, Bucket reason)
{
    ThreadGov &g = state(t);
    if (g.probing) {
        // The storm outlived our optimism: probe failed, back off.
        g.probing = false;
        g.probeBackoffExp =
            std::min(g.probeBackoffExp + 1, kMaxProbeBackoffExp);
        count(met_.failedProbes);
    }
    to = std::min(to, static_cast<uint32_t>(kSampling));
    if (to <= g.level)
        return;
    g.level = to;
    g.demoteReason = reason;
    g.lastTransition = now(m, t);
    g.restartWindow(g.lastTransition);
    count(met_.demotions);
    m.tel().flight.note(t, FrKind::Control, m.currentStep(), ~0u,
                        to, why);
}

uint32_t
FallbackGovernor::levelForRegion(Machine &m, Tid t)
{
    if (!enabled_)
        return kFast;
    ThreadGov &g = state(t);
    uint64_t n = now(m, t);

    // A probe that survived two full windows without demotion is a
    // success: the storm has passed, forget the backoff.
    if (g.probing && n - g.lastTransition >= 2 * kWindowCost) {
        g.probing = false;
        g.probeBackoffExp = 0;
        count(met_.probeSuccesses);
    }

    // Re-probation: after a cooldown (exponentially longer for every
    // recently failed probe) optimistically climb one rung.
    if (g.level > kFast) {
        uint64_t delay = kReprobateAfterCost << g.probeBackoffExp;
        if (n - g.lastTransition >= delay &&
            budget_ && budget_->underPressure()) {
            // Monitor mode composes on top of the ladder: a promotion
            // means more instrumentation, and the budget controller
            // says the current window cannot afford what it already
            // runs. The budget wins; restart the cooldown.
            g.lastTransition = n;
            count(met_.budgetVetoes);
        } else if (n - g.lastTransition >= delay) {
            --g.level;
            g.lastTransition = n;
            g.restartWindow(n);
            g.probing = true;
            count(met_.reprobations);
            m.tel().flight.note(t, FrKind::Control, m.currentStep(), ~0u,
                                g.level, FrControl::GovProbe);
        }
    }
    return g.level;
}

GovernorAction
FallbackGovernor::onAbort(Machine &m, Tid t, Bucket reason,
                          bool primary)
{
    if (!enabled_)
        return GovernorAction::FallBack;
    ThreadGov &g = state(t);
    uint64_t n = now(m, t);

    // Roll the abort-rate window.
    if (n - g.windowStart > kWindowCost)
        g.restartWindow(n);
    ++g.windowAborts;

    // Livelock: the same thread's regions conflict-abort over and
    // over — escalate straight to slow-start instead of ping-ponging
    // TxFail broadcasts through the whole machine.
    if (reason == Bucket::Conflict && primary) {
        if (++g.consecConflicts >= kLivelockK) {
            g.consecConflicts = 0;
            count(met_.livelockEscalations);
            m.tel().flight.note(t, FrKind::Control, m.currentStep(), ~0u,
                                g.level, FrControl::GovLivelock);
            demote(m, t, kSlowStart, FrControl::DemoteLivelock, reason);
            return GovernorAction::FallBack;
        }
    }

    if (g.windowAborts >= kDemoteAbortsPerWindow) {
        // Which rung helps depends on what is killing us. Capacity
        // pressure shrinks with shorter transactions, so take one
        // step down the ladder. Interrupt-driven unknown aborts do
        // not care how short the transaction is -- re-beginning just
        // re-arms the roulette -- so skip straight to slow-start.
        // The ShortTx rung shrinks write sets, so it is the right
        // first response to capacity pressure -- and only to that.
        // Interrupt and retry aborts strike per step regardless of
        // transaction length (shortening just adds xbegin/xend), and
        // without loop cuts nothing can be shortened at all.
        uint32_t to = reason == Bucket::Capacity && shortTxUseful_
            ? g.level + 1
            : std::max(g.level + 1,
                       static_cast<uint32_t>(kSlowStart));
        demote(m, t, to, FrControl::DemoteAbortRate, reason);
    }

    // Transient-looking aborts are worth riding out in place a
    // bounded number of times before surrendering the region to the
    // slow path -- but only while the window is otherwise quiet: an
    // isolated interrupt is a transient, a busy abort window is a
    // storm, and re-arming the transaction inside a storm just pays
    // the stall and the xbegin to abort again. Conflicts never retry
    // in place: the TxFail protocol must run so the other side of
    // the race gets re-checked.
    if (reason == Bucket::Unknown && g.level == kFast &&
        g.windowAborts <= 1 &&
        g.backoffsUsed < kMaxBackoffRetries) {
        ++g.backoffsUsed;
        // The stall is degradation overhead, not fast-path work: the
        // thread reads as "fast" (its transaction is being re-armed)
        // but these cycles exist only because the governor chose to
        // wait, so budget accounting files them under degraded.
        m.addCost(t, kBackoffCost, reason, telemetry::Phase::Degraded);
        count(met_.backoffRetries);
        return GovernorAction::RetryBackoff;
    }
    return GovernorAction::FallBack;
}

void
FallbackGovernor::onCommit(Tid t)
{
    if (!enabled_ || t >= threads_.size())
        return;
    ThreadGov &g = threads_[t];
    g.consecConflicts = 0;
    g.backoffsUsed = 0;
}

void
FallbackGovernor::onSlowCheckCost(Machine &m, Tid t, uint64_t cost)
{
    if (!enabled_)
        return;
    ThreadGov &g = state(t);
    if (g.level != kSlowStart)
        return;
    uint64_t n = now(m, t);
    if (n - g.windowStart > kWindowCost)
        g.restartWindow(n);
    g.windowSlowCost += cost;
    ++g.windowSlowChecks;
    // Even the fallback can be pathological (slow-path stall fault):
    // bound it by degrading to sampled checking. Dense-but-healthy
    // slow traffic is the fallback doing its job, so the rung only
    // trips when the observed per-check cost is well above the
    // configured baseline -- i.e. the slow path itself is stalling.
    uint64_t base = m.config().cost.effectiveCheckCost();
    if (g.windowSlowCost >= kDemoteSlowCostPerWindow &&
        g.windowSlowCost > 2 * base * g.windowSlowChecks) {
        if (g.windowAborts == 0) {
            // The slow path is the expensive part and the hardware
            // has been quiet all window: the cheapest escape is back
            // UP the ladder, not further down it.
            --g.level;
            g.lastTransition = n;
            g.restartWindow(n);
            g.probing = true;
            count(met_.stallPromotions);
            m.tel().flight.note(t, FrKind::Control, m.currentStep(), ~0u,
                                g.level, FrControl::GovStallProbe);
        } else {
            // Aborting hardware AND a stalled slow path: cornered;
            // sampled checking is the only bounded option left.
            demote(m, t, kSampling, FrControl::DemoteSlowCost,
                   threads_[t].demoteReason);
        }
    }
}

sim::Bucket
FallbackGovernor::demoteReasonFor(Tid t) const
{
    return t < threads_.size() ? threads_[t].demoteReason
                               : Bucket::Unknown;
}

bool
FallbackGovernor::sampleThisAccess(Tid t)
{
    return state(t).sampleRng.chance(kSampleRate);
}

uint64_t
FallbackGovernor::loopcutDivisorFor(Tid t) const
{
    return level(t) >= kShortTx ? 2 : 1;
}

} // namespace txrace::core
