/**
 * @file
 * Per-thread version log recorded inside the HTM fast path, the
 * substrate of the winner replay (mem-record-rtmseq idiom: version
 * vectors stamped inside the transaction, bounded per-thread ring,
 * versions published at commit).
 *
 * Each transactional access appends one 16-byte entry carrying the
 * address, static site, global step, and the line's last *published*
 * version — the version a committed writer stamped on it. A conflict
 * marks the requester's window so far (oldest first, ending with the
 * conflicting access) as *owed*. The winner replays its owed window
 * under the happens-before detector right after it commits, so its
 * side of the race is checked even though it escaped the victim's
 * TxFail broadcast. A winner that aborts instead re-executes those
 * accesses, and when the slow path checks them again the owed window
 * is dropped unreplayed (counted as owedDropped).
 *
 * The log streams into a dedicated per-thread ring (write-only
 * streaming stores the cache retires without holding the lines for
 * conflict detection), so it does not tighten the transactional
 * write-set boundary — but the ring itself is a hard capacity bound.
 * A window that would overflow it surfaces as a CapacityAbort — never
 * silent truncation, which would make the replayed window a lie.
 */

#ifndef TXRACE_HTM_VERSIONLOG_HH
#define TXRACE_HTM_VERSIONLOG_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/instruction.hh"
#include "mem/layout.hh"
#include "support/types.hh"

namespace txrace::htm {

/** One logged transactional access (16 bytes packed on hardware). */
struct VersionLogEntry
{
    ir::Addr addr = 0;
    uint64_t step = 0;
    ir::InstrId site = ir::kNoInstr;
    /** Owning thread (merge key; replay issues the check as it). */
    Tid tid = 0;
    /** Published version of the line at access time (seqlock-style
     *  stamp; lets offline consumers validate the merge order). */
    uint32_t version = 0;
    bool isWrite = false;
};

/** Lifetime counters, exported as htm.vlog.* by the machine. */
struct VersionLogCounters
{
    /** Entries appended across all transactions. */
    uint64_t entries = 0;
    /** Appends refused because the per-thread ring was full (the
     *  transaction died with a capacity abort). */
    uint64_t ringOverflows = 0;
    /** Line versions published by committing writers. */
    uint64_t published = 0;
    /** Owed windows dropped unreplayed because the winner aborted and
     *  its slow-path re-execution checks those accesses again. */
    uint64_t owedDropped = 0;
};

/**
 * The per-thread rings plus the shared published-version table.
 * Owned by HtmEngine when HtmConfig::versionLog is set; the policy
 * marks a winner's window owed on a conflict and replays it at the
 * winner's commit.
 */
class VersionLog
{
  public:
    explicit VersionLog(uint32_t max_entries)
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

    /**
     * Append one access. Returns false when the ring is full — the
     * caller must abort the transaction (capacity), because dropping
     * the entry would silently truncate the replay window.
     */
    bool
    append(Tid t, ir::Addr addr, ir::InstrId site, uint64_t step,
           bool is_write)
    {
        ThreadLog &l = log(t);
        if (l.entries.size() >= maxEntries_) {
            ++counters_.ringOverflows;
            return false;
        }
        VersionLogEntry e;
        e.addr = addr;
        e.step = step;
        e.site = site;
        e.tid = t;
        e.version = versionOf(mem::lineOf(addr));
        e.isWrite = is_write;
        l.entries.push_back(e);
        ++counters_.entries;
        return true;
    }

    /** Entries appended since beginTx (capacity accounting). */
    size_t
    entryCount(Tid t) const
    {
        return t < logs_.size() ? logs_[t].entries.size() : 0;
    }

    /** A conflict: @p t won it, so everything @p t has logged so far
     *  (ending with the conflicting access) is owed a replay. A later
     *  conflict in the same transaction extends the owed window. */
    void
    markOwed(Tid t)
    {
        ThreadLog &l = log(t);
        l.owedUpTo = l.entries.size();
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

    /** Commit: publish new versions for every written line, then
     *  drop the window (it can no longer abort). */
    void
    commitTx(Tid t)
    {
        ThreadLog &l = log(t);
        for (const VersionLogEntry &e : l.entries) {
            if (!e.isWrite)
                continue;
            ++lineVersion_[mem::lineOf(e.addr)];
            ++counters_.published;
        }
        l.entries.clear();
        l.owedUpTo = 0;
    }

    /** Drop @p t's window without publishing (its transaction
     *  aborted); an owed part counts as owedDropped. */
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

    /** Published version of @p line (0 until a writer commits). */
    uint32_t
    versionOf(uint64_t line) const
    {
        auto it = lineVersion_.find(line);
        return it == lineVersion_.end() ? 0 : it->second;
    }

    const VersionLogCounters &counters() const { return counters_; }

    /** Forget everything (new run). */
    void
    reset()
    {
        logs_.clear();
        lineVersion_.clear();
        counters_ = VersionLogCounters{};
    }

  private:
    struct ThreadLog
    {
        std::vector<VersionLogEntry> entries;
        /** Entries below this index are owed a replay: the
         *  transaction won a conflict after logging them. */
        size_t owedUpTo = 0;
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
    /** line -> last published (committed) version. */
    std::unordered_map<uint64_t, uint32_t> lineVersion_;
    VersionLogCounters counters_;
};

} // namespace txrace::htm

#endif // TXRACE_HTM_VERSIONLOG_HH
