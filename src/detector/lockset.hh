/**
 * @file
 * Eraser-style lockset race detector (Savage et al., TOCS 1997) —
 * the classic alternative the paper's related-work section contrasts
 * with happens-before detection (§9): locksets are cheap and
 * schedule-insensitive but *incomplete*: they ignore non-mutex
 * synchronization (condvars, barriers, fork/join ordering beyond
 * initialization), so they report false races that TxRace's slow
 * path, by design, never does. This module exists for the ablation
 * benchmark that reproduces that comparison.
 *
 * Per 8-byte granule, the detector keeps Eraser's state machine:
 *
 *   Virgin -> Exclusive (first access, owner thread recorded)
 *          -> Shared (read by a second thread; candidate set tracked,
 *                     no reports — read sharing after init is fine)
 *          -> SharedModified (written by a second thread, or written
 *                     while Shared; reports when the candidate
 *                     lockset goes empty)
 *
 * The candidate lockset C(v) starts as "all locks" and is refined to
 * C(v) ∩ locksHeld(thread) on each access in the Shared states.
 */

#ifndef TXRACE_DETECTOR_LOCKSET_HH
#define TXRACE_DETECTOR_LOCKSET_HH

#include <cstdint>
#include <set>
#include <unordered_map>

#include "detector/report.hh"
#include "mem/layout.hh"
#include "support/types.hh"

namespace txrace::detector {

/** Fixed-layout counters for the lockset hot path; EraserPolicy
 *  publishes them into the machine's metrics registry at run end. */
struct LocksetCounters
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t warnings = 0;
};

/** Eraser's lockset algorithm over 8-byte granules. */
class LocksetDetector
{
  public:
    /** @name Lock tracking */
    /** @{ */
    void lockAcquire(Tid t, uint64_t lock_id);
    void lockRelease(Tid t, uint64_t lock_id);
    /** @} */

    /** @name Memory access checking */
    /** @{ */
    void read(Tid t, ir::Addr addr, ir::InstrId instr);
    void write(Tid t, ir::Addr addr, ir::InstrId instr);
    /** @} */

    /** Warnings so far (static instruction pairs, like HbDetector's
     *  reports, so the ablation can compare sets directly). */
    const RaceSet &races() const { return races_; }

    /** Locks currently held by @p t (tests). */
    const std::set<uint64_t> &heldBy(Tid t);

    /** Raw counters (checks, warnings). */
    const LocksetCounters &counters() const { return counters_; }

  private:
    enum class State : uint8_t {
        Virgin,
        Exclusive,
        Shared,
        SharedModified,
    };

    struct Shadow
    {
        State state = State::Virgin;
        Tid owner = kNoTid;
        /** Candidate lockset; meaningful once past Exclusive. The
         *  conceptual initial value is "all locks", represented by
         *  universe = true. */
        bool universe = true;
        std::set<uint64_t> candidates;
        /** Last access (for pair-style reporting). */
        ir::InstrId lastInstr = ir::kNoInstr;
        bool reported = false;
    };

    void access(Tid t, ir::Addr addr, ir::InstrId instr,
                bool is_write);
    void refine(Shadow &sh, Tid t);

    std::unordered_map<Tid, std::set<uint64_t>> held_;
    std::unordered_map<uint64_t, Shadow> shadow_;
    RaceSet races_;
    LocksetCounters counters_;
};

} // namespace txrace::detector

#endif // TXRACE_DETECTOR_LOCKSET_HH
