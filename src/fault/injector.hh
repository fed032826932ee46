/**
 * @file
 * The FaultInjector: turns a FaultPlan into per-step modifier state
 * the simulator consults from its scheduler loop.
 *
 * The injector is advanced once per scheduler step. It maintains the
 * set of currently active episodes incrementally (O(1) per step away
 * from episode boundaries) and reports every begin/end transition so
 * the machine can record it in the event stream and count it in its
 * metrics registry — injected events are first-class observable facts
 * of a run.
 */

#ifndef TXRACE_FAULT_INJECTOR_HH
#define TXRACE_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault.hh"

namespace txrace::fault {

/** One episode boundary crossed during advance(). */
struct FaultTransition
{
    const FaultEpisode *episode = nullptr;
    uint32_t index = 0;  ///< the episode's position in the plan
    bool begin = false;  ///< false = the episode just ended
};

/**
 * Stateful evaluator of one FaultPlan over one run. Owned by the
 * simulated machine; a fresh machine gets a fresh injector, so runs
 * stay pure functions of their configuration.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /** True when the plan schedules no episodes at all (fast path:
     *  the machine skips injection work entirely). */
    bool empty() const { return plan_.empty(); }

    /**
     * Advance to scheduler step @p step (monotonically increasing).
     * Returns the episode boundaries crossed since the previous call;
     * the active modifier state below reflects @p step afterwards.
     */
    const std::vector<FaultTransition> &advance(uint64_t step);

    /** @name Active modifier state */
    /** @{ */
    /** Multiplier on the machine's interruptPerStep. */
    double interruptMult() const { return interruptMult_; }
    /** Additive per-step interrupt probability. */
    double interruptAdd() const { return interruptAdd_; }
    /** Additive per-step retry-abort probability. */
    double retryAdd() const { return retryAdd_; }
    /** L1d ways currently unavailable to transactional write sets. */
    uint32_t capacityWaysPenalty() const { return waysPenalty_; }
    /** Scheduler steps a TxFail publication is delayed right now. */
    uint64_t txFailDelaySteps() const { return txFailDelay_; }
    /** Multiplier on the software-check (slow-path) cost. */
    double slowPathCostMult() const { return slowPathMult_; }
    /** True while at least one episode is active. */
    bool anyActive() const { return activeCount_ > 0; }
    /** @} */

  private:
    void recomputeModifiers();

    FaultPlan plan_;
    /** Parallel to plan_.episodes: is episode i currently active? */
    std::vector<bool> active_;
    uint64_t nextBoundary_ = 0;  ///< earliest step needing rescan
    uint32_t activeCount_ = 0;
    std::vector<FaultTransition> transitions_;

    double interruptMult_ = 1.0;
    double interruptAdd_ = 0.0;
    double retryAdd_ = 0.0;
    uint32_t waysPenalty_ = 0;
    uint64_t txFailDelay_ = 0;
    double slowPathMult_ = 1.0;
};

} // namespace txrace::fault

#endif // TXRACE_FAULT_INJECTOR_HH
