#include "fault/injector.hh"

#include <algorithm>
#include <limits>

namespace txrace::fault {

namespace {

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan) : plan_(plan)
{
    active_.assign(plan_.episodes.size(), false);
    // First boundary of interest: the earliest episode start.
    nextBoundary_ = kNever;
    for (const FaultEpisode &ep : plan_.episodes)
        if (ep.duration > 0)
            nextBoundary_ = std::min(nextBoundary_, ep.start);
}

const std::vector<FaultTransition> &
FaultInjector::advance(uint64_t step)
{
    transitions_.clear();
    if (step < nextBoundary_)
        return transitions_;

    // Rescan: flip episodes whose boundary we crossed and find the
    // next step at which anything changes again.
    nextBoundary_ = kNever;
    for (size_t i = 0; i < plan_.episodes.size(); ++i) {
        const FaultEpisode &ep = plan_.episodes[i];
        if (ep.duration == 0)
            continue;
        bool now = ep.activeAt(step);
        if (now != static_cast<bool>(active_[i])) {
            active_[i] = now;
            activeCount_ += now ? 1 : -1;
            transitions_.push_back(
                {&plan_.episodes[i], static_cast<uint32_t>(i), now});
        }
        if (!now && step < ep.start)
            nextBoundary_ = std::min(nextBoundary_, ep.start);
        else if (now)
            nextBoundary_ = std::min(nextBoundary_, ep.end());
    }
    if (!transitions_.empty())
        recomputeModifiers();
    return transitions_;
}

void
FaultInjector::recomputeModifiers()
{
    interruptMult_ = 1.0;
    interruptAdd_ = 0.0;
    retryAdd_ = 0.0;
    waysPenalty_ = 0;
    txFailDelay_ = 0;
    slowPathMult_ = 1.0;
    for (size_t i = 0; i < plan_.episodes.size(); ++i) {
        if (!active_[i])
            continue;
        const FaultEpisode &ep = plan_.episodes[i];
        switch (ep.kind) {
          case FaultKind::InterruptStorm:
            interruptMult_ *= ep.magnitude;
            interruptAdd_ += ep.addProb;
            break;
          case FaultKind::CapacityCliff:
            waysPenalty_ += static_cast<uint32_t>(ep.param);
            break;
          case FaultKind::RetryGlitch:
            retryAdd_ += ep.addProb;
            break;
          case FaultKind::TxFailDelay:
            txFailDelay_ = std::max(txFailDelay_, ep.param);
            break;
          case FaultKind::SlowPathStall:
            slowPathMult_ *= ep.magnitude;
            break;
        }
    }
}

} // namespace txrace::fault
