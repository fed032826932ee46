/**
 * @file
 * The phase profiler: attributes every executed scheduler step to the
 * detection mode the acting thread was in, per thread — the data
 * behind the paper's Figure 10 "time in fast path vs slow path"
 * breakdown, generalized with the governor's degraded modes.
 */

#ifndef TXRACE_TELEMETRY_PHASE_HH
#define TXRACE_TELEMETRY_PHASE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace txrace::telemetry {

/** Execution mode a thread occupies during one scheduler step. */
enum class Phase : uint8_t {
    Fast,      ///< inside an HTM-monitored transaction
    Slow,      ///< software happens-before checking episode
    Degraded,  ///< governor-forced slow/sampled region
    Native,    ///< outside any monitored region (or untransacted run)
    NumPhases,
};

constexpr size_t kNumPhases = static_cast<size_t>(Phase::NumPhases);

/** Display name of a phase. */
const char *phaseName(Phase p);

/**
 * Per-thread step attribution. Every executed scheduler step is
 * noted exactly once, in per-quantum batches (noteSteps()); the counts
 * over all threads and phases sum to exactly the number of steps
 * noted (total()), which the accounting tests assert.
 *
 * A second, independent dimension attributes virtual *cost* the same
 * way (noteCost, fed by every Machine cost booking): per-(thread,
 * phase) cost cells partition the run's total cost exactly, so budget
 * accounting can ask "how much was spent while degraded" and trust
 * the answer.
 */
class PhaseProfiler
{
  public:
    using PerPhase = std::array<uint64_t, kNumPhases>;

    /** Attribute @p n steps of thread @p t to phase @p p (the step
     *  loop notes each quantum once: a quantum runs in one phase). A
     *  batch with no steps leaves the per-thread rows untouched. */
    void
    noteSteps(Tid t, Phase p, uint64_t n)
    {
        if (n == 0)
            return;
        if (t >= perThread_.size())
            perThread_.resize(t + 1);
        perThread_[t][static_cast<size_t>(p)] += n;
        total_ += n;
    }

    /** Attribute @p c cost units of thread @p t to phase @p p. */
    void
    noteCost(Tid t, Phase p, uint64_t c)
    {
        if (t >= perThreadCost_.size())
            perThreadCost_.resize(t + 1);
        perThreadCost_[t][static_cast<size_t>(p)] += c;
        totalCost_ += c;
    }

    /** Steps noted in total (== sum over threads and phases). */
    uint64_t total() const { return total_; }

    /** Steps attributed to @p p across all threads. */
    uint64_t count(Phase p) const;

    /** Cost noted in total (== sum over threads and phases). */
    uint64_t totalCost() const { return totalCost_; }

    /** Cost attributed to @p p across all threads. */
    uint64_t costOf(Phase p) const;

    /** Per-thread breakdown, indexed by tid. */
    const std::vector<PerPhase> &perThread() const { return perThread_; }

    /** Per-thread cost breakdown, indexed by tid. */
    const std::vector<PerPhase> &
    perThreadCost() const
    {
        return perThreadCost_;
    }

  private:
    std::vector<PerPhase> perThread_;
    std::vector<PerPhase> perThreadCost_;
    uint64_t total_ = 0;
    uint64_t totalCost_ = 0;
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_PHASE_HH
