/**
 * @file
 * Per-thread version log behind the winner replay (mem-record's RTM
 * recorder idiom: a bounded per-thread ring the runtime writes inside
 * the transaction).
 *
 * Commodity RTM has no logging hardware: the log is ordinary software
 * stores the TxRace runtime makes inside its own transactions, so it
 * lives in TxRacePolicy, which appends each instrumented access, starts
 * the window at xbegin and drops it at commit or abort.
 *
 * Each instrumented transactional access appends one entry carrying
 * the address, static site and access kind — all the replay reads,
 * since it checks every entry as the owning thread. A conflict
 * marks the requester's window so far (oldest first, ending with the
 * conflicting access) as *owed*. The winner replays its owed window
 * under the happens-before detector right after it commits, so its
 * side of the race is checked even though it escaped the victim's
 * TxFail broadcast. A winner that aborts instead re-executes those
 * accesses, and when the slow path checks them again the owed window
 * is dropped unreplayed (counted as owedDropped).
 *
 * The ring's fixed bound (kRingEntries) is a capacity limit of its
 * own: a window that would overflow it aborts the transaction with a
 * capacity status — never silent truncation, which would make the
 * replayed window a lie. Its stores are not priced yet and do not
 * join the transactional write set (DESIGN.md, "One slow path").
 */

#ifndef TXRACE_CORE_VERSIONLOG_HH
#define TXRACE_CORE_VERSIONLOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/instruction.hh"
#include "support/types.hh"

namespace txrace::core {

/** One logged transactional access. */
struct VersionLogEntry
{
    ir::Addr addr = 0;
    ir::InstrId site = ir::kNoInstr;
    bool isWrite = false;
};

/** Lifetime counters, exported as htm.vlog.* at the end of the run. */
struct VersionLogCounters
{
    /** Entries appended across all transactions. */
    uint64_t entries = 0;
    /** Appends refused because the per-thread ring was full (the
     *  transaction died with a capacity abort). */
    uint64_t ringOverflows = 0;
    /** Owed windows dropped unreplayed because the winner aborted and
     *  its slow-path re-execution checks those accesses again. */
    uint64_t owedDropped = 0;
};

/**
 * The per-thread rings. Owned by TxRacePolicy under the winner
 * replay; the policy marks a winner's window owed on a conflict and
 * replays it at the winner's commit.
 */
class VersionLog
{
  public:
    /** Per-thread ring bound (entries). */
    static constexpr uint32_t kRingEntries = 1024;

    explicit VersionLog(uint32_t max_entries = kRingEntries)
        : maxEntries_(max_entries)
    {
    }

    /** Start @p t's window: clear its ring and owed watermark. */
    void
    beginTx(Tid t)
    {
        ThreadLog &l = log(t);
        l.entries.clear();
        l.owedUpTo = 0;
    }

    /** Commit: drop the window (it can no longer abort). The caller
     *  takes the owed part first. */
    void commitTx(Tid t) { beginTx(t); }

    /**
     * Append one access. Returns false when the ring is full — the
     * caller must abort the transaction (capacity), because dropping
     * the entry would silently truncate the replay window.
     */
    bool
    append(Tid t, ir::Addr addr, ir::InstrId site, bool is_write)
    {
        ThreadLog &l = log(t);
        if (l.entries.size() >= maxEntries_) {
            ++counters_.ringOverflows;
            return false;
        }
        l.entries.push_back({addr, site, is_write});
        ++counters_.entries;
        return true;
    }

    /** Entries appended since beginTx (capacity accounting). */
    size_t
    entryCount(Tid t) const
    {
        return t < logs_.size() ? logs_[t].entries.size() : 0;
    }

    /** A conflict: @p t won it at @p site, so everything @p t has
     *  logged so far (ending with the conflicting access) is owed a
     *  replay. A later conflict in the same transaction extends the
     *  owed window and moves its site. */
    void
    markOwed(Tid t, ir::InstrId site)
    {
        ThreadLog &l = log(t);
        l.owedUpTo = l.entries.size();
        l.owedSite = site;
    }

    /** Site of the latest conflict @p t's owed window ends at
     *  (attribution for the replay). */
    ir::InstrId
    owedSite(Tid t) const
    {
        return t < logs_.size() ? logs_[t].owedSite : ir::kNoInstr;
    }

    /** @p t's owed window, oldest first (empty when nothing is owed). */
    std::vector<VersionLogEntry>
    owedWindow(Tid t) const
    {
        if (t >= logs_.size())
            return {};
        const ThreadLog &l = logs_[t];
        return {l.entries.begin(),
                l.entries.begin() + static_cast<ptrdiff_t>(l.owedUpTo)};
    }

    /** @p t's owed window was replayed at an abort (the re-run might
     *  not check it again): nothing is owed any more. */
    void
    settleOwed(Tid t)
    {
        log(t).owedUpTo = 0;
    }

    /** Drop @p t's window (its transaction aborted); an owed part
     *  counts as owedDropped. */
    void
    clear(Tid t)
    {
        if (t >= logs_.size())
            return;
        ThreadLog &l = logs_[t];
        if (l.owedUpTo > 0)
            ++counters_.owedDropped;
        l.entries.clear();
        l.owedUpTo = 0;
    }

    const VersionLogCounters &counters() const { return counters_; }

  private:
    struct ThreadLog
    {
        std::vector<VersionLogEntry> entries;
        /** Entries below this index are owed a replay: the
         *  transaction won a conflict after logging them. */
        size_t owedUpTo = 0;
        /** Site of the latest conflict won (see markOwed). */
        ir::InstrId owedSite = ir::kNoInstr;
    };

    ThreadLog &
    log(Tid t)
    {
        if (t >= logs_.size())
            logs_.resize(t + 1);
        return logs_[t];
    }

    uint32_t maxEntries_;
    std::vector<ThreadLog> logs_;
    VersionLogCounters counters_;
};

} // namespace txrace::core

#endif // TXRACE_CORE_VERSIONLOG_HH
