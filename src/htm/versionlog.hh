/**
 * @file
 * Per-thread version log recorded inside the HTM fast path, the
 * substrate of the winner replay (mem-record-rtmseq idiom: version
 * vectors stamped inside the transaction, bounded per-thread ring,
 * versions published at commit).
 *
 * Each transactional access appends one 16-byte entry carrying the
 * address, static site, global step, and the line's last *published*
 * version — the version a committed writer stamped on it. On a
 * conflict abort the victim replays the requester's pending window
 * (oldest first, ending with the conflicting access) under the
 * happens-before detector and advances the requester's watermark, so
 * the winner's side of the race is checked even if it commits before
 * the victim's TxFail write lands.
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
};

/**
 * The per-thread rings plus the shared published-version table.
 * Owned by HtmEngine when HtmConfig::versionLog is set; the policy
 * reads pending windows through the engine on conflict aborts.
 */
class VersionLog
{
  public:
    explicit VersionLog(uint32_t max_entries)
        : maxEntries_(max_entries)
    {
    }

    /** Start @p t's window: clear its ring and replay watermark. */
    void
    beginTx(Tid t)
    {
        ThreadLog &l = log(t);
        l.entries.clear();
        l.replayedUpTo = 0;
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

    /** @p t's not-yet-replayed window, oldest first. */
    std::vector<VersionLogEntry>
    pendingWindow(Tid t) const
    {
        if (t >= logs_.size())
            return {};
        const ThreadLog &l = logs_[t];
        return {l.entries.begin() +
                    static_cast<ptrdiff_t>(l.replayedUpTo),
                l.entries.end()};
    }

    /** Advance @p t's watermark past everything logged so far (its
     *  window was just replayed; keep the entries so a later abort in
     *  the same transaction does not re-replay them). */
    void
    markReplayed(Tid t)
    {
        ThreadLog &l = log(t);
        l.replayedUpTo = l.entries.size();
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
        l.replayedUpTo = 0;
    }

    /** Drop @p t's window without publishing. */
    void
    clear(Tid t)
    {
        if (t < logs_.size()) {
            logs_[t].entries.clear();
            logs_[t].replayedUpTo = 0;
        }
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
        /** Entries below this index were already replayed through the
         *  detector by an earlier abort of the same transaction. */
        size_t replayedUpTo = 0;
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
