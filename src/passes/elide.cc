/**
 * @file
 * Static access-elision pipeline (the reproduction of the
 * "Compiling Away the Overhead of Race Detection" / HardRace idea the
 * paper's §7 points at: most dynamic checks are statically redundant).
 *
 * Three passes, all running AFTER transactionalize() and none
 * inserting, removing, or reordering instructions: passes 1-2 only
 * clear `instrumented` bits, and pass 3 only sets region marks. Rule 4
 * changes no instruction at all: the TxRace runtime applies it to the
 * prepared program (hbrelevance.cc). That
 * discipline keeps an elided and a non-elided build position-for-
 * position identical. With the same region marks the two builds are
 * schedule-identical (same step counts, same RNG draws, same
 * transaction boundaries), so the differential soundness test can
 * assert byte-identical race-fingerprint sets per run.
 *
 * 1. Pre-spawn and never-written elision. Thread creation orders
 *    every access the entry function makes before its first
 *    ThreadCreate ahead of every other thread's accesses (the
 *    single-threaded elision of §4.3, decided statically), so none of
 *    them can race. The cut-off is that create, or the outermost loop
 *    around it, since the loop's later trips run after the spawn. Each
 *    access before it is elided and joins no footprint. The
 *    rule needs an entry function that no ThreadCreate runs, and a
 *    program that never spawns is pre-spawn throughout.
 *    Then: every reported race pairs two accesses to one granule, at
 *    least one of them a store that reached the detector. A load
 *    whose whole-program footprint interval (pass 2's geometry, over
 *    every thread the entry function can spawn) overlaps the
 *    footprint of no still-instrumented store, in any function, can
 *    therefore never be a report endpoint, and is elided.
 *    So `main`'s set-up stores keep none of the loads of the data they
 *    initialize. An unanalyzable store's footprint is the whole
 *    address space, so it keeps every load; without a thread bound
 *    neither rule does anything. Both run before pass 2, so that the
 *    accesses they remove no longer merge otherwise-disjoint slot
 *    families or break a group's common mutex.
 *
 * 2. Thread-disjointness (extended escape/privatization) and
 *    locksets. The simulator evaluates `addr = base +
 *    threadStride*tid + loopStride*loopIdx + randomStride*uniform`,
 *    so an access's dynamic footprint is a per-thread interval. The
 *    accesses whose global footprints transitively overlap form a
 *    group; any two accesses that can touch one granule fall in one
 *    group. Count slots of the common thread stride ts from the
 *    group's origin, its lowest footprint address rounded down to a
 *    granule. If a group is one "slot family" — ts granule-aligned,
 *    and every member's extent (base − origin + span + one granule)
 *    inside the first slot — then thread t only ever touches slot t,
 *    whose bounds are granule-aligned, so two different threads can
 *    never touch a common granule, under any schedule. No member can
 *    ever race and all of them can be elided. Counting from the
 *    origin rather than from address 0 accepts every family a slot
 *    grid anchored at 0 would, plus those, like facesim's per-thread
 *    mesh, that start part-way into such a slot. This generalizes privatize.cc beyond
 *    declared ranges. Otherwise, if one mutex is held at every member,
 *    that mutex's release→acquire edge orders every pair of them, and
 *    the detector tracks lock edges on both paths, so again no member
 *    can race and the group is elided. The held set comes
 *    from a forward scan of each function: a thread starts with none,
 *    LockAcquire adds its mutex, LockRelease removes it. Functions
 *    branch only at loops, so that set holds on every path unless a
 *    loop body ends holding a different set than it began with; such
 *    a function gets empty sets throughout.
 *
 * 3. Bare regions. A TxBegin from which no instrumented access is
 *    reachable before a TxEnd — following fall-through and loop
 *    back-edges, so a region that wraps around a loop is judged on
 *    every path it can take — is marked kRegionBare (overriding the
 *    small-region mark). The skip past a loop that runs zero trips
 *    needs no edge of its own: transactionalize() ends the region at
 *    the exit of every loop that holds a boundary, so past such a loop
 *    the skip lands on a TxEnd, and past any other loop it lands where
 *    the body's fall-through does.
 *    The region then runs with no transaction, no slow path and no
 *    snapshot: it has nothing the detector would check, on the fast
 *    path or on any slow path, so no report endpoint is lost. A
 *    critical section whose accesses the lock rule elided is one. Its
 *    accesses still reach the HTM, so strong isolation still aborts
 *    the transactions they touch. Dropping the transaction also drops
 *    the aborts it suffered and the TxFail demotions those caused in
 *    other threads, so unlike passes 1-2 this changes the schedule:
 *    per-run race sets may move. The race union over seeds may only
 *    grow, and only by initialization-idiom pairs (§8.3), which
 *    overlap detection catches or misses by schedule luck.
 *
 * 4. Happens-before relevance. A check reads only the clock entries
 *    of threads that run checked code, and only to order two accesses
 *    of different threads, so a lock or condvar whose edges lie on no
 *    path between two such accesses needs no tracking. The graph's
 *    nodes are functions and lock, condvar and barrier ids. A release
 *    or post adds an edge from its function to the object, an acquire
 *    or wait one from the object to its function, and a barrier both.
 *    A create adds an edge from the parent to the child's function. A
 *    join adds an edge from every spawned function (a join names a
 *    spawn index, not a function) to the joiner, but only when the
 *    joiner releases, posts, meets a barrier, creates or makes an
 *    instrumented access after it: later in body order, or anywhere
 *    in the outermost loop around the join (a later trip). A lock or
 *    condvar is tracked iff it lies on a path from a function holding
 *    an instrumented access to such a function, the two not both the
 *    entry function when no ThreadCreate runs it (one thread then
 *    runs it, and one thread's accesses never race). Barriers,
 *    creates and joins stay tracked whenever any access is
 *    instrumented; a program with none tracks nothing. Untracked ops
 *    skip the detector and syncTrackCost, and ordering between checked
 *    accesses is unchanged: each tracked release still ticks its
 *    thread's clock before any later access. Only the elided build
 *    applies the rule; `--no-elide` tracks every object.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/layout.hh"
#include "passes/passes.hh"
#include "support/log.hh"

namespace txrace::passes {

using ir::Instruction;
using ir::OpCode;
using ir::Program;

namespace {

/** One instrumented access with its footprint summary. */
struct Footprint
{
    ir::FuncId func = 0;
    uint32_t pc = 0;
    bool store = false;
    /** threadStride. */
    uint64_t ts = 0;
    uint64_t base = 0;
    /** Max byte offset beyond base + ts*tid (loop + random extent). */
    uint64_t span = 0;
    /** Whole-program footprint interval [lo, hi], inclusive. */
    uint64_t lo = 0;
    uint64_t hi = 0;
    /** False when the extent could not be bounded (unknown loop
     *  nesting); such an access blocks its whole overlap group. */
    bool analyzable = true;
    /** Mutexes held at the access on every path, sorted. */
    std::vector<uint64_t> locks;
};

/**
 * Upper bound on simulated thread ids: 1 (root) + every ThreadCreate,
 * with creations inside loops multiplied by the loops' maximum trip
 * counts. Returns 0 when no sound bound exists (thread creation
 * outside the entry function, or absurd loop products), which
 * disables passes 1 and 2 (pre-spawn, never-written,
 * thread-disjointness and lockset).
 */
uint64_t
maxThreadBound(const Program &prog)
{
    constexpr uint64_t kCap = 1u << 20;
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f) {
        if (f == prog.entry())
            continue;
        for (const Instruction &ins : prog.function(f).body)
            if (ins.op == OpCode::ThreadCreate)
                return 0;  // transitive spawning: no easy bound
    }
    uint64_t total = 1;
    uint64_t mult = 1;
    std::vector<uint64_t> mult_stack;
    for (const Instruction &ins :
         prog.function(prog.entry()).body) {
        if (ins.op == OpCode::LoopBegin) {
            mult_stack.push_back(mult);
            uint64_t trips = ins.arg0 + ins.arg1;
            if (trips == 0)
                trips = 1;
            if (mult > kCap / trips)
                return 0;
            mult *= trips;
        } else if (ins.op == OpCode::LoopEnd) {
            mult = mult_stack.back();
            mult_stack.pop_back();
        } else if (ins.op == OpCode::ThreadCreate) {
            total += mult;
            if (total > kCap)
                return 0;
        }
    }
    return total;
}

/**
 * The pc of the entry function before which its accesses precede
 * every other thread's: its first ThreadCreate, or the outermost
 * LoopBegin around that create (a later trip runs after the spawn).
 * The whole body when the entry spawns nothing, and 0 when a
 * ThreadCreate runs the entry function itself.
 */
uint32_t
preSpawnEnd(const Program &prog)
{
    const ir::Function &fn = prog.function(prog.entry());
    uint32_t end = static_cast<uint32_t>(fn.body.size());
    uint32_t outer = 0;
    size_t depth = 0;
    for (uint32_t pc = 0; pc < fn.body.size(); ++pc) {
        const Instruction &ins = fn.body[pc];
        if (ins.op == OpCode::LoopBegin) {
            if (depth++ == 0)
                outer = pc;
        } else if (ins.op == OpCode::LoopEnd) {
            --depth;
        } else if (ins.op == OpCode::ThreadCreate) {
            if (ins.arg0 == prog.entry())
                return 0;
            end = std::min(end, depth > 0 ? outer : pc);
        }
    }
    return end;
}

/** Clear `instrumented` on access @p pc of @p f, counting it in
 *  @p counter and in @p f's per-function total. */
void
elideAccess(Program &prog, ir::FuncId f, uint32_t pc,
              uint64_t &counter, std::vector<uint64_t> &fn_elided)
{
    prog.function(f).body[pc].instrumented = false;
    ++counter;
    ++fn_elided[f];
}

/**
 * The footprint of every still-instrumented access, for a program
 * of at most @p max_threads threads. The entry function's pre-spawn
 * accesses (see file comment) are elided here instead, so
 * they join no footprint.
 */
std::vector<Footprint>
collectFootprints(Program &prog, uint64_t max_threads,
                  ElisionStats &stats, std::vector<uint64_t> &fn_elided)
{
    const uint32_t pre_spawn_end = preSpawnEnd(prog);
    std::vector<Footprint> fps;
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f) {
        ir::Function &fn = prog.function(f);
        const size_t first = fps.size();
        // Static stack of enclosing LoopBegin pcs while scanning, and
        // the mutexes held (sorted) here and at each enclosing
        // LoopBegin. Every thread starts with no lock held.
        std::vector<uint32_t> loop_stack;
        std::vector<uint64_t> held;
        std::vector<std::vector<uint64_t>> loop_held;
        bool balanced = true;
        for (uint32_t pc = 0; pc < fn.body.size(); ++pc) {
            const Instruction &ins = fn.body[pc];
            if (ins.op == OpCode::LoopBegin) {
                loop_stack.push_back(pc);
                loop_held.push_back(held);
                continue;
            }
            if (ins.op == OpCode::LoopEnd) {
                loop_stack.pop_back();
                // A body that ends holding other locks than it began
                // with holds different sets on different trips.
                balanced = balanced && held == loop_held.back();
                loop_held.pop_back();
                continue;
            }
            if (ins.op == OpCode::LockAcquire ||
                ins.op == OpCode::LockRelease) {
                auto it =
                    std::lower_bound(held.begin(), held.end(), ins.arg0);
                const bool in = it != held.end() && *it == ins.arg0;
                if (ins.op == OpCode::LockAcquire && !in)
                    held.insert(it, ins.arg0);
                else if (ins.op == OpCode::LockRelease && in)
                    held.erase(it);
                continue;
            }
            if (!ir::isMemAccess(ins.op) || !ins.instrumented)
                continue;
            if (f == prog.entry() && pc < pre_spawn_end) {
                elideAccess(prog, f, pc, stats.preSpawn, fn_elided);
                continue;
            }

            Footprint fp;
            fp.func = f;
            fp.pc = pc;
            fp.store = ins.op == OpCode::Store;
            fp.ts = ins.addr.threadStride;
            fp.base = ins.addr.base;
            uint64_t span = 0;
            if (ins.addr.loopStride != 0) {
                if (ins.addr.loopDepth >= loop_stack.size()) {
                    fp.analyzable = false;
                } else {
                    const Instruction &loop =
                        fn.body[loop_stack[loop_stack.size() - 1 -
                                           ins.addr.loopDepth]];
                    uint64_t max_idx = loop.arg0 + loop.arg1;
                    max_idx = max_idx > 0 ? max_idx - 1 : 0;
                    span += ins.addr.loopStride * max_idx;
                }
            }
            if (ins.addr.randomCount > 0)
                span += ins.addr.randomStride *
                        (ins.addr.randomCount - 1);
            fp.span = span;
            if (fp.analyzable) {
                fp.lo = fp.base;
                fp.hi = fp.base + span + mem::kGranuleSize - 1 +
                        (fp.ts > 0 ? fp.ts * (max_threads - 1) : 0);
            } else {
                fp.lo = 0;
                fp.hi = ~0ull;
            }
            fp.locks = held;
            fps.push_back(std::move(fp));
        }
        if (!balanced)
            for (size_t i = first; i < fps.size(); ++i)
                fps[i].locks.clear();
    }
    return fps;
}

/**
 * Never-written elision (see file comment): elides every load in
 * @p fps whose footprint overlaps no store's, and drops it from
 * @p fps so the privatization sweep no longer sees it.
 */
void
elideReadOnly(Program &prog, std::vector<Footprint> &fps,
              ElisionStats &stats, std::vector<uint64_t> &fn_elided)
{
    // Store footprints merged into disjoint intervals sorted by lo
    // (hence by hi too).
    std::vector<std::pair<uint64_t, uint64_t>> written;
    for (const Footprint &fp : fps)
        if (fp.store)
            written.emplace_back(fp.lo, fp.hi);
    std::sort(written.begin(), written.end());
    size_t merged = 0;
    for (const auto &[lo, hi] : written) {
        if (merged > 0 && lo <= written[merged - 1].second)
            written[merged - 1].second =
                std::max(written[merged - 1].second, hi);
        else
            written[merged++] = {lo, hi};
    }
    written.resize(merged);

    std::erase_if(fps, [&](const Footprint &fp) {
        if (fp.store)
            return false;
        // The first written interval ending at or after fp.lo is the
        // only one that can overlap [fp.lo, fp.hi].
        auto it = std::lower_bound(
            written.begin(), written.end(), fp.lo,
            [](const auto &w, uint64_t lo) { return w.second < lo; });
        if (it != written.end() && it->first <= fp.hi)
            return false;
        elideAccess(prog, fp.func, fp.pc, stats.readOnly, fn_elided);
        return true;
    });
}

/**
 * Thread-disjointness and lockset elision. Groups the accesses of
 * @p fps whose global footprints can overlap, and elides every member
 * of a group proven per-thread disjoint or guarded throughout by one
 * mutex (see file comment). Sound regardless of schedule: the
 * detector can never pair two different threads on a common granule
 * of the first kind, and orders every such pair of the second kind by
 * the mutex's release→acquire edge, so removing the checks removes no
 * race.
 */
void
elidePrivate(Program &prog, std::vector<Footprint> fps,
             ElisionStats &stats, std::vector<uint64_t> &fn_elided)
{
    if (fps.empty())
        return;

    std::sort(fps.begin(), fps.end(),
              [](const Footprint &a, const Footprint &b) {
                  return a.lo < b.lo;
              });

    // Sweep: maximal groups of transitively overlapping intervals.
    size_t group_start = 0;
    uint64_t group_hi = fps[0].hi;
    auto flush = [&](size_t end) {
        // Safe iff all members form one slot family: a common
        // granule-aligned thread stride ts, and slots counted from the
        // group's origin (its lowest lo, rounded down to a granule)
        // with every member's extent inside the first one. Thread t
        // then only ever touches slot t, whose bounds are
        // granule-aligned. (The member holding the lowest lo starts
        // within a granule of the origin, so a common slot phase is
        // the same thing as "starts in slot 0".)
        const uint64_t ts = fps[group_start].ts;
        const uint64_t origin =
            fps[group_start].lo / mem::kGranuleSize * mem::kGranuleSize;
        bool safe = ts > 0 && ts % mem::kGranuleSize == 0;
        for (size_t i = group_start; safe && i < end; ++i) {
            const Footprint &fp = fps[i];
            safe = fp.analyzable && fp.ts == ts &&
                   fp.base - origin + fp.span + mem::kGranuleSize <= ts;
        }
        if (!safe) {
            // Otherwise safe iff one mutex is held at every member.
            std::vector<uint64_t> common = fps[group_start].locks;
            for (size_t i = group_start + 1; !common.empty() && i < end;
                 ++i) {
                const std::vector<uint64_t> &l = fps[i].locks;
                std::erase_if(common, [&](uint64_t m) {
                    return !std::binary_search(l.begin(), l.end(), m);
                });
            }
            if (common.empty())
                return;
        }
        uint64_t &counter = safe ? stats.privatized : stats.locked;
        for (size_t i = group_start; i < end; ++i)
            elideAccess(prog, fps[i].func, fps[i].pc, counter,
                          fn_elided);
    };
    for (size_t i = 1; i < fps.size(); ++i) {
        if (fps[i].lo > group_hi) {
            flush(i);
            group_start = i;
            group_hi = fps[i].hi;
        } else {
            group_hi = std::max(group_hi, fps[i].hi);
        }
    }
    flush(fps.size());
}

/**
 * Bare-region marking (see file comment): marks each TxBegin of @p fn
 * from which no instrumented access is reachable before a TxEnd.
 */
void
markBareRegions(ir::Function &fn, uint64_t &counter)
{
    const uint32_t n = static_cast<uint32_t>(fn.body.size());
    // visited[pc] == the TxBegin pc whose walk last reached pc.
    std::vector<uint32_t> visited(n, n);
    std::vector<uint32_t> work;
    for (uint32_t begin = 0; begin < n; ++begin) {
        if (fn.body[begin].op != OpCode::TxBegin)
            continue;
        bool checks = false;
        work.assign(1, begin + 1);
        while (!work.empty() && !checks) {
            const uint32_t pc = work.back();
            work.pop_back();
            if (pc >= n || visited[pc] == begin)
                continue;
            visited[pc] = begin;
            const Instruction &ins = fn.body[pc];
            if (ins.op == OpCode::TxEnd)
                continue;
            checks = ir::isMemAccess(ins.op) && ins.instrumented;
            work.push_back(pc + 1);
            // LoopEnd: the back-edge to the body's top.
            if (ins.op == OpCode::LoopEnd)
                work.push_back(static_cast<uint32_t>(ins.match) + 1);
        }
        if (!checks) {
            fn.body[begin].arg1 = ir::kRegionBare;
            ++counter;
        }
    }
}

} // namespace

ElisionStats
elide(Program &prog, const ElideConfig &cfg)
{
    ElisionStats stats;
    if (!cfg.enabled)
        return stats;
    if (!prog.finalized())
        fatal("elide: program not finalized");

    std::vector<uint64_t> fn_elided(prog.numFunctions(), 0);
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f)
        for (const Instruction &ins : prog.function(f).body)
            if (ir::isMemAccess(ins.op) && ins.instrumented)
                ++stats.candidates;
    if (const uint64_t max_threads = maxThreadBound(prog)) {
        std::vector<Footprint> fps =
            collectFootprints(prog, max_threads, stats, fn_elided);
        elideReadOnly(prog, fps, stats, fn_elided);
        elidePrivate(prog, std::move(fps), stats, fn_elided);
    }
    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f)
        markBareRegions(prog.function(f), stats.bareRegions);

    for (ir::FuncId f = 0; f < prog.numFunctions(); ++f)
        if (fn_elided[f] > 0)
            stats.perFunction.emplace_back(prog.function(f).name,
                                           fn_elided[f]);
    return stats;
}

} // namespace txrace::passes
