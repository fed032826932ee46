/**
 * @file
 * Loop-cut threshold table (paper §4.3).
 *
 * A transaction containing a high-trip loop overflows the HTM write
 * set; the loop-cut optimization ends the transaction mid-loop every
 * `threshold` iterations so each segment fits. The threshold cannot
 * be counted inside the transaction (updates would be rolled back),
 * so it lives here, outside transactional state, and is adjusted when
 * segment transactions commit (+1) or capacity-abort (-1, floored at
 * 1) — converging on the largest segment length that still commits.
 * A capacity abort also records a ceiling one below the failing
 * threshold, so commit-driven growth stops at the learned capacity
 * instead of oscillating across it.
 *
 * TxRace-DynLoopcut starts at a small initial estimate on the first
 * capacity abort of a loop; TxRace-ProfLoopcut preloads thresholds
 * (and their ceilings) from a profiling run — the stand-in for the
 * paper's LBR-based profiling — and so avoids even the first
 * capacity abort.
 */

#ifndef TXRACE_CORE_LOOPCUT_HH
#define TXRACE_CORE_LOOPCUT_HH

#include <cstdint>
#include <unordered_map>

namespace txrace::core {

/** Per-static-loop cutting thresholds with commit/abort learning. */
class LoopCutTable
{
  public:
    static constexpr uint64_t kMaxThreshold = 1ull << 20;
    /** The Dyn scheme's first-abort estimate (paper: 2). */
    static constexpr uint64_t kDynInitial = 2;

    /** Learned state of one loop. */
    struct Entry
    {
        uint64_t threshold = 0;
        uint64_t ceiling = kMaxThreshold;
    };

    /** @p init is the first-abort estimate; tests vary it. */
    explicit LoopCutTable(uint64_t init = kDynInitial) : initial_(init) {}

    /** Threshold for @p loop_id; 0 means "not cutting this loop". */
    uint64_t
    threshold(uint64_t loop_id) const
    {
        auto it = entries_.find(loop_id);
        return it == entries_.end() ? 0 : it->second.threshold;
    }

    /** Preload a profiled threshold (ProfLoopcut). The profiled value
     *  is trusted as the capacity ceiling, avoiding even the first
     *  capacity abort of the loop. */
    void
    preload(uint64_t loop_id, uint64_t threshold)
    {
        if (threshold == 0)
            return;
        entries_[loop_id] = Entry{threshold, threshold};
    }

    /** A segment transaction of @p loop_id committed: grow, but never
     *  beyond the learned ceiling. */
    void
    onCommit(uint64_t loop_id)
    {
        auto it = entries_.find(loop_id);
        if (it == entries_.end())
            return;
        Entry &e = it->second;
        if (e.threshold < e.ceiling)
            ++e.threshold;
    }

    /**
     * A transaction containing @p loop_id capacity-aborted. Activates
     * the loop at the initial estimate on first sight (Dyn). If the
     * aborted transaction was actually *governed* by the current
     * threshold (it started after the threshold was active and died
     * before reaching the cut point), the threshold was too large:
     * shrink it and pin the ceiling. Aborts of stale transactions
     * that predate the learned threshold carry no evidence and are
     * ignored — without this distinction, a second thread's
     * first-iteration abort would collapse a freshly learned
     * threshold to 1 and pin it there.
     */
    void
    onCapacityAbort(uint64_t loop_id, bool governed = true)
    {
        auto it = entries_.find(loop_id);
        if (it == entries_.end()) {
            entries_[loop_id] = Entry{initial_, kMaxThreshold};
            return;
        }
        if (!governed)
            return;
        Entry &e = it->second;
        if (e.threshold > 1)
            --e.threshold;
        e.ceiling = e.threshold;
    }

    /** All learned entries (exported by profiling runs). */
    const std::unordered_map<uint64_t, Entry> &all() const
    {
        return entries_;
    }

  private:
    uint64_t initial_;
    std::unordered_map<uint64_t, Entry> entries_;
};

} // namespace txrace::core

#endif // TXRACE_CORE_LOOPCUT_HH
