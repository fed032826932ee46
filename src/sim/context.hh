/**
 * @file
 * Per-thread execution state, including the snapshot/rollback support
 * that stands in for the hardware's transactional register/memory
 * rollback.
 */

#ifndef TXRACE_SIM_CONTEXT_HH
#define TXRACE_SIM_CONTEXT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/program.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace txrace::sim {

struct DecodedOp;

/** Scheduling state of a simulated thread. */
enum class ThreadState : uint8_t {
    Runnable,
    Blocked,
    Finished,
};

/** Which detection path the thread is currently on (TxRace modes). */
enum class PathMode : uint8_t {
    Fast,  ///< HTM-monitored (or unmonitored when elided)
    Slow,  ///< software happens-before checking until region end
};

/** One active loop of a thread. */
struct LoopFrame
{
    uint32_t beginPc = 0;   ///< pc of the LoopBegin instruction
    uint64_t index = 0;     ///< current iteration, 0-based
    uint64_t total = 0;     ///< trip count resolved at loop entry
    /** Iterations executed inside the current transaction (loop-cut
     *  bookkeeping; rolled back with the frame on abort, exactly the
     *  property §4.3 exploits). */
    uint64_t itersInTx = 0;
};

/**
 * The rollback image of a thread: control state captured when a
 * transaction begins, restored on abort. Memory needs no image
 * because transactional stores never reach memory in this simulator
 * (the HTM engine's write set is discarded on abort) and the
 * simulator is value-agnostic during detection runs.
 */
struct ContextSnapshot
{
    uint32_t pc = 0;
    std::vector<LoopFrame> loops;
    Rng rng;
    bool valid = false;
};

/** Seed of thread @p t's Rng in a run seeded @p master (the Machine
 *  and tallyProgram derive every thread's stream from it). */
inline uint64_t
threadSeed(uint64_t master, Tid t)
{
    uint64_t s = master ^ (0x9e3779b97f4a7c15ULL * (t + 1));
    return splitmix64(s);
}

/** Full per-thread state. */
struct ThreadContext
{
    Tid tid = 0;
    ir::FuncId func = 0;
    uint32_t pc = 0;
    /** Decoded body of func, bound by the machine at thread start so
     *  the step loop fetches ops without a per-op function lookup.
     *  Stable for the thread's lifetime (func never changes). */
    const DecodedOp *code = nullptr;
    uint32_t codeLen = 0;
    std::vector<LoopFrame> loops;
    Rng rng;
    ThreadState state = ThreadState::Runnable;

    /** @name Phase and cost attribution (the machine reads these; the
     *  active ExecutionPolicy sets path and govForced) */
    /** @{ */
    PathMode path = PathMode::Fast;
    /** The current slow episode was forced by the governor's
     *  degradation ladder rather than by an abort (phase-profiler
     *  attribution: degraded vs genuine slow-path time). */
    bool govForced = false;
    /** This thread's accumulated virtual cost. */
    uint64_t myCost = 0;
    /** Base-bucket cost accrued since the current tx began. */
    uint64_t baseSinceTxBegin = 0;
    /** @} */

    /** Speculative store buffer: granule -> value written inside the
     *  current transaction. Applied to memory on commit, discarded on
     *  abort — the software stand-in for the L1's transactional
     *  write buffering. */
    std::unordered_map<uint64_t, uint64_t> txStores;

    ContextSnapshot snap;

    /** Capture control state; @p resume_pc is where re-execution of
     *  the region (after rollback) starts. */
    void
    takeSnapshot(uint32_t resume_pc)
    {
        snap.pc = resume_pc;
        snap.loops = loops;
        snap.rng = rng;
        snap.valid = true;
    }

    /** Restore the snapshot image. The cost counters above stay, as
     *  does the policy's own per-thread state: the paper keeps both
     *  outside transactions. */
    void
    restoreSnapshot()
    {
        pc = snap.pc;
        loops = snap.loops;
        rng = snap.rng;
    }
};

} // namespace txrace::sim

#endif // TXRACE_SIM_CONTEXT_HH
