/**
 * @file
 * Software model of a best-effort hardware transactional memory in
 * the mold of Intel's Restricted Transactional Memory (TSX/RTM), the
 * commodity HTM the paper builds on. This is the substitution for the
 * hardware the reproduction environment lacks; see DESIGN.md.
 *
 * Faithfully modeled properties (each is load-bearing for TxRace):
 *  - conflict detection at cache-line (64 B) granularity, so false
 *    sharing raises conflicts exactly like true sharing;
 *  - requester-wins conflict resolution: the requesting access always
 *    succeeds and every conflicting *transaction* aborts;
 *  - strong isolation: non-transactional accesses participate in
 *    conflict detection and abort conflicting transactions (this is
 *    what makes the TxFail flag protocol work);
 *  - bounded capacity shaped like an L1d: the write set is limited by
 *    per-set associativity (32 KiB / 64 B lines / 8 ways), the read
 *    set by a larger secondary bound;
 *  - a cap on concurrently executing transactions equal to the number
 *    of hardware threads;
 *  - an Intel-style abort status word, with all-zero meaning unknown.
 *
 * That status word is all the model reports, as on commodity RTM: no
 * conflict address, no per-line debug bits, no logging hardware. The
 * extensions the paper discusses live in the policies that read them
 * (core/): the winner replay's version log is the TxRace runtime's own
 * stores, and RaceTM's debug bits are the RaceTM policy's per-thread
 * map. The §9 conflict-address hint needs hardware that reports the
 * conflicting line, so it has no counterpart here.
 *
 * The engine tracks read/write line ownership and decides who aborts;
 * the simulator performs the actual rollback of thread state (the
 * write buffering lives in the interpreter's transactional store
 * queue).
 *
 * Conflict detection runs on a reverse line directory — one
 * open-addressing table mapping cache line -> reader/writer slot
 * bitmasks — answering every access with a single probe and a bitmask
 * intersection, O(1) in the number of open transactions. (The
 * original per-thread line-set scan survived PR 3 for one PR as the
 * differential-testing oracle and was removed once the directory
 * property/differential suite took over that role.) Every access
 * made while a transaction is in flight probes the directory;
 * redundant accesses are removed statically, by the elision passes,
 * before the program runs.
 */

#ifndef TXRACE_HTM_HTM_HH
#define TXRACE_HTM_HTM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "htm/abort.hh"
#include "htm/linedir.hh"
#include "ir/addr.hh"
#include "mem/layout.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace txrace::htm {

using ir::Addr;

/** Geometry and limits of the modeled HTM. */
struct HtmConfig
{
    /** L1d sets (32 KiB / 64 B lines / 8 ways = 64 sets). */
    uint32_t l1Sets = 64;
    /** L1d associativity; bounds write-set lines per cache set. */
    uint32_t l1Ways = 8;
    /** Total read-set lines trackable (secondary structure). */
    uint32_t readSetMaxLines = 4096;
    /** Maximum concurrently open transactions: the hardware threads
     *  (8 with hyperthreading on the paper's quad-core testbed).
     *  At most 64: the directory keeps one bitmask bit per in-flight
     *  transaction, and the constructor fatal()s beyond that. */
    uint32_t maxConcurrentTx = 8;
    /**
     * Probability that a new write-set line finds one way of its set
     * unavailable (interference from non-transactional data, the
     * hyperthread twin, prefetchers...). Real TSX capacity boundaries
     * are noisy in exactly this way, which is why the paper's
     * loop-cut optimization reduces but never eliminates capacity
     * aborts. 0 = deterministic boundary (unit tests).
     */
    double capacityJitter = 0.0;
};

/**
 * Fixed-layout engine counters. The begin/commit/abort paths are the
 * hottest code in the model, so they bump plain integers; the
 * machine publishes them into its metrics registry at the end of the
 * run, under the htm.* names.
 */
struct HtmCounters
{
    uint64_t begins = 0;
    uint64_t commits = 0;
    uint64_t abortsConflict = 0;
    uint64_t abortsCapacity = 0;
    uint64_t abortsUnknown = 0;
    uint64_t abortsOther = 0;
};

/** Outcome of routing one memory access through the HTM. */
struct AccessResult
{
    /** The requesting transaction overflowed and must abort. */
    bool selfCapacity = false;
    /** Transactions aborted by this access (requester-wins),
     *  in ascending tid order. */
    std::vector<Tid> victims;
};

/**
 * The HTM conflict/capacity engine. One instance per simulated
 * machine; thread ids index its per-thread transaction state.
 */
class HtmEngine
{
  public:
    /** @p seed seeds the capacity-jitter RNG; the machine derives it
     *  from its own seed. */
    explicit HtmEngine(const HtmConfig &cfg = {}, uint64_t seed = 1);

    /** True if a new transaction may begin (hardware-thread limit). */
    bool canBegin() const;

    /** Open a transaction for @p t. Caller must check canBegin(). */
    void begin(Tid t);

    /** True if @p t has an open transaction. */
    bool inTx(Tid t) const;

    /**
     * Route an access through conflict detection, updating @p t's
     * read/write sets if it is transactional.
     *
     * Requester-wins: the access itself always succeeds unless the
     * requester overflows its own capacity; every *other* in-flight
     * transaction whose line sets conflict with it is returned as a
     * victim and has been marked aborted (conflict|retry) by the
     * engine. The caller rolls the victims back.
     *
     * On selfCapacity the requester's transaction has been marked
     * aborted (capacity) and no victims are produced (the request
     * never reached the coherence fabric).
     *
     * Defined inline below: this is the single hottest call in the
     * simulator (once per interpreted memory access), and the wrapper
     * — line extraction, state lookup, native-mode early-out — must
     * not cost a cross-TU call before the engine body even starts.
     */
    AccessResult access(Tid t, Addr addr, bool is_write);

    /** Commit @p t's transaction. Panics if none is open. */
    void commit(Tid t);

    /**
     * Abort @p t's transaction with @p status (used by the simulator
     * for interrupt-induced unknown aborts, by policies for aborts of
     * their own making, and by access() internally).
     */
    void abortTx(Tid t, AbortStatus status);

    /** Status recorded at @p t's most recent abort. */
    AbortStatus lastAbortStatus(Tid t) const;

    /**
     * Make @p penalty L1d ways transiently unavailable to
     * transactional write sets (fault injection: a capacity cliff).
     * Effective associativity is clamped to at least one way; applies
     * to capacity checks from now on, including open transactions.
     */
    void setWaysPenalty(uint32_t penalty) { waysPenalty_ = penalty; }

    /** Number of currently open transactions. */
    size_t inFlightCount() const { return inFlight_; }

    /** Read/write set sizes of @p t's open transaction (lines). */
    size_t readSetLines(Tid t) const;
    size_t writeSetLines(Tid t) const;

    /** Raw engine counters (begins, commits, aborts by cause). */
    const HtmCounters &counters() const { return counters_; }

    /** The directory, for telemetry export and tests. */
    const LineDirectory *lineDirectory() const { return &dir_; }

  private:
    struct TxState
    {
        bool active = false;

        /** @name Directory representation */
        /** @{ */
        /** Directory bitmask bit index while active. */
        uint32_t slot = 0;
        /** Lines holding any of this tx's bits (commit/abort clear
         *  list; reused across transactions, no per-begin alloc). */
        std::vector<uint64_t> lines;
        uint32_t readLineCount = 0;
        uint32_t writeLineCount = 0;
        /** @} */

        /** @name Epoch-stamped per-set write occupancy
         * Sized once at the thread's first begin; begin() bumps
         * occEpoch instead of zeroing the arrays, so the begin path
         * never allocates or memsets after warmup. */
        /** @{ */
        std::vector<uint8_t> setOccupancy;
        std::vector<uint32_t> setStamp;
        uint32_t occEpoch = 0;
        /** @} */

        AbortStatus lastAbort = 0;
    };

    TxState &state(Tid t);
    const TxState *stateIfAny(Tid t) const;

    /** Directory access body (probe + bitmask intersection). */
    void accessDirectory(uint64_t line, bool is_write, TxState *self,
                         bool self_tx, AccessResult &result);

    /** Tear down @p s's line footprint (commit or abort). Decrements
     *  inFlight_ and, in directory mode, frees the slot and clears
     *  the tx's lines (or the whole directory when it was the last
     *  open transaction — one epoch bump instead of a walk). */
    void release(TxState &s);

    /** Write-set ways available right now; consumes the jitter RNG
     *  only for a new write line with jitter on. */
    uint32_t effectiveWays();

    /** Start a fresh occupancy epoch for @p s (no allocation after
     *  the thread's first transaction). */
    void beginOccupancy(TxState &s);

    uint32_t
    occupancyOf(const TxState &s, uint32_t set) const
    {
        return s.setStamp[set] == s.occEpoch ? s.setOccupancy[set] : 0;
    }

    void
    bumpOccupancy(TxState &s, uint32_t set)
    {
        if (s.setStamp[set] != s.occEpoch) {
            s.setStamp[set] = s.occEpoch;
            s.setOccupancy[set] = 1;
        } else {
            ++s.setOccupancy[set];
        }
    }

    HtmConfig cfg_;
    Rng rng_;
    std::vector<TxState> tx_;
    LineDirectory dir_;
    /** In-use directory slot bits; slot i belongs to slotTid_[i]. */
    uint64_t slotsUsed_ = 0;
    std::array<Tid, 64> slotTid_{};
    size_t inFlight_ = 0;
    uint32_t waysPenalty_ = 0;
    HtmCounters counters_;
};

inline const HtmEngine::TxState *
HtmEngine::stateIfAny(Tid t) const
{
    return t < tx_.size() ? &tx_[t] : nullptr;
}

// Inline: the decoded step loop asks per op (phase attribution, tx
// store buffering), so this must be a bounds check and a load.
inline bool
HtmEngine::inTx(Tid t) const
{
    const TxState *s = stateIfAny(t);
    return s && s->active;
}

inline AccessResult
HtmEngine::access(Tid t, Addr addr, bool is_write)
{
    AccessResult result;
    const uint64_t line = mem::lineOf(addr);
    TxState *self = t < tx_.size() ? &tx_[t] : nullptr;
    const bool self_tx = self && self->active;

    // Early-out: a non-transactional access with no transaction in
    // flight has nothing to check and nothing to record. This is the
    // whole story for native-mode runs, which used to pay the full
    // victim scan on every access.
    if (!self_tx && inFlight_ == 0)
        return result;

    accessDirectory(line, is_write, self, self_tx, result);
    return result;
}

} // namespace txrace::htm

#endif // TXRACE_HTM_HTM_HH
