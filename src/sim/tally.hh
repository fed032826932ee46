/**
 * @file
 * A schedule-free tally of what a run of a program executes.
 *
 * The IR has no branches, and a thread's loop trips and random
 * addresses come from its own Rng, so each thread's op stream is a
 * function of the program and the run's seed alone: the schedule only
 * interleaves the streams. tallyProgram walks each thread's stream
 * over the decoded program (so every op is charged what the Machine
 * charges) without a scheduler, memory, sync tables or policy, and
 * sums what calibration needs: the Base total a Native run reaches,
 * the instrumented accesses and the sync events a detector tracks.
 *
 * A loop whose body holds no random-trip loop, no create and no join
 * does the same ops on every trip, so its first trip is walked and
 * multiplied; the random bounds that trip drew are replayed for the
 * remaining trips, which leaves each thread's Rng where the Machine's
 * would be (only its state matters, not the values drawn).
 */

#ifndef TXRACE_SIM_TALLY_HH
#define TXRACE_SIM_TALLY_HH

#include <cstdint>

#include "ir/program.hh"
#include "sim/costmodel.hh"

namespace txrace::sim {

/** What one run executes, summed over its threads. */
struct OpTally
{
    /** Base charge of every op: the Native run's total cost. */
    uint64_t cost = 0;
    /** Instrumented accesses executed (one software check each). */
    uint64_t checks = 0;
    /** Lock, unlock, signal, wait, barrier arrival and create events
     *  (1 each), plus one per thread a join waits for. */
    uint64_t syncs = 0;
};

/**
 * Tally a run of @p prog at @p seed under cost model @p cost, for a
 * run that ends normally (no deadlock, bad access or truncation).
 * Thread 0 runs the entry function; its creates take tids 1, 2, ... in
 * the order it executes them. panic()s, naming the function, when a
 * function other than the entry creates or joins threads, or when a
 * create runs the entry function: then the spawn order would depend
 * on the schedule.
 */
OpTally tallyProgram(const ir::Program &prog, const CostModel &cost,
                     uint64_t seed);

} // namespace txrace::sim

#endif // TXRACE_SIM_TALLY_HH
