/**
 * @file
 * Compile-time instrumentation passes — the reproduction of the
 * paper's LLVM transformation (§4.1, §4.3, §7).
 *
 * The pipeline mirrors what TxRace's LLVM pass does to real IR:
 *
 *  1. privatize(): clear the `instrumented` bit on accesses that fall
 *     in ranges the program declares thread-private — the stand-in
 *     for reusing TSan's static "provably race-free" elision.
 *  2. transactionalize(): insert TxBegin at thread entry points and
 *     after every synchronization operation or system call; insert
 *     TxEnd at thread exit points and before every synchronization
 *     operation or system call (system calls must not execute inside
 *     a transaction on RTM — privilege-level changes abort).
 *     A loop whose body holds such a boundary also ends the region at
 *     its exit, so the region opened inside the loop never runs on
 *     into the code after it.
 *     Then, as the paper's optimizations:
 *       - drop transactions around regions with no instrumented
 *         memory operations (TSan would not instrument them either);
 *       - force regions with fewer than K (=5) estimated dynamic
 *         memory operations onto the slow path, where the software
 *         detector is cheaper than transaction management;
 *       - insert LoopCut checks at the end of loop bodies that
 *         execute inside transactions, enabling the DynLoopcut /
 *         ProfLoopcut capacity-abort avoidance schemes.
 *
 * Post-condition (asserted): Program::checkTransactionalForm()
 * passes, i.e. transactions alternate correctly on every dynamic
 * path and never contain a system call or synchronization operation.
 */

#ifndef TXRACE_PASSES_PASSES_HH
#define TXRACE_PASSES_PASSES_HH

#include <string>
#include <utility>
#include <vector>

#include "ir/program.hh"

namespace txrace::passes {

/**
 * Configuration of the static elision pipeline (passes/elide.cc). All
 * elision passes run strictly after transactionalize() and change no
 * instruction's position: they clear `instrumented` bits and set
 * region marks. Given the same region marks, the instruction stream,
 * region boundaries and every RNG draw are identical with elision on
 * and off, which is what makes the soundness contract ("elision never
 * changes which races are reported") checkable by a bitwise
 * differential test.
 */
struct ElideConfig
{
    /** Master switch (txrace_run --no-elide clears it); gates every
     *  pass, none of which has a switch of its own. */
    bool enabled = true;
};

/** Regions with < K estimated dynamic instrumented accesses are
 *  forced onto the slow path (paper §4.3, K = 5). */
inline constexpr uint32_t kSmallRegionK = 5;

/** Tunables of the instrumentation pipeline. */
struct PassConfig
{
    /** Insert LoopCut instrumentation (off for TxRace-NoOpt). */
    bool insertLoopCuts = true;
    /** Static access-elision pipeline (TxRace modes only). */
    ElideConfig elide;
};

/** What the elision pipeline did, for telemetry (pass.elide.*). */
struct ElisionStats
{
    /** Instrumented memory accesses entering the pipeline. */
    uint64_t candidates = 0;
    /** Loads elided because no instrumented store can reach their
     *  footprint (never written, so never a race endpoint). */
    uint64_t readOnly = 0;
    /** Elided as provably thread-disjoint (cannot race). */
    uint64_t privatized = 0;
    /** Elided because every access that can share a granule with
     *  them holds one common mutex (ordered, so cannot race). */
    uint64_t locked = 0;
    /** Elided because the entry function makes them before its first
     *  spawn, which orders them before every other thread. */
    uint64_t preSpawn = 0;
    /** Regions marked bare: no instrumented access is reachable from
     *  their TxBegin, so they run without a transaction. Not an
     *  access count, so not part of elided(). */
    uint64_t bareRegions = 0;
    /** Per-function elided counts, in function order. */
    std::vector<std::pair<std::string, uint64_t>> perFunction;

    uint64_t
    elided() const
    {
        return readOnly + privatized + locked + preSpawn;
    }
};

/**
 * Which sync ops the TxRace runtime must track for its checks to see
 * the exact happens-before order (hbRelevance(); the rule is item 4
 * of elide.cc's pass list). The default tracks every op.
 */
struct HbRelevance
{
    /** Some access is still instrumented. Without one no check runs,
     *  so no op is tracked; with one, every barrier, create and join
     *  is. */
    bool checks = true;
    /** Every lock and condvar is tracked, not just those listed. */
    bool everyObject = true;
    /** The tracked lock and condvar ids, sorted (when !everyObject). */
    std::vector<uint64_t> locks;
    std::vector<uint64_t> conds;

    /** Whether sync op @p ins (lock, condvar, barrier, create or
     *  join) updates the detector's clocks. */
    bool tracks(const ir::Instruction &ins) const;
};

/**
 * The happens-before relevance of @p prog's sync objects: with
 * @p per_object, only the lock and condvar ids that can lie on a
 * happens-before path between two checked accesses of different
 * threads; otherwise every one. Reads `instrumented` bits, so it runs
 * on the prepared program. Linear in the program's size.
 */
HbRelevance hbRelevance(const ir::Program &prog, bool per_object);

/** Clear `instrumented` on accesses inside declared private ranges. */
void privatize(ir::Program &prog);

/** Insert TxBegin/TxEnd/LoopCut per the rules above. The program is
 *  refinalized; panics if the post-condition fails. */
void transactionalize(ir::Program &prog, const PassConfig &cfg = {});

/**
 * Static elision pipeline: pre-spawn elision (the entry function's
 * accesses before its first spawn), never-written load elision, the
 * thread-disjointness (escape/privatization) analysis with its
 * lockset rule (groups one mutex always guards), and bare-region
 * marking, per @p cfg. Must run after transactionalize(), whose
 * TxBegin markers carry the bare-region marks. Only `instrumented`
 * bits and TxBegin region marks change.
 */
ElisionStats elide(ir::Program &prog, const ElideConfig &cfg = {});

/** Copy @p prog and run the full TxRace pipeline on the copy.
 *  @p elision, when non-null, receives the elision statistics. */
ir::Program preparedForTxRace(const ir::Program &prog,
                              const PassConfig &cfg = {},
                              ElisionStats *elision = nullptr);

/** Copy @p prog and run only privatize() (TSan baseline build). The
 *  elision pipeline is not applied: TSan/Eraser baselines measure the
 *  paper's unmodified instrumentation. */
ir::Program preparedForTSan(const ir::Program &prog);

} // namespace txrace::passes

#endif // TXRACE_PASSES_PASSES_HH
