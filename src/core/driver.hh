/**
 * @file
 * One-call experiment driver: build the right instrumented program,
 * run it under the right policy, and package the results. This is the
 * primary public entry point of the library.
 */

#ifndef TXRACE_CORE_DRIVER_HH
#define TXRACE_CORE_DRIVER_HH

#include <array>

#include "core/budget.hh"
#include "core/governor.hh"
#include "core/runmode.hh"
#include "detector/report.hh"
#include "ir/program.hh"
#include "passes/passes.hh"
#include "sim/machine.hh"
#include "support/stats.hh"

namespace txrace::core {

/** Seed perturbation for the ProfLoopcut profiling pre-run
 *  ("representative input" differs from the measured input). */
inline constexpr uint64_t kProfileSeedDelta = 0x50f11eULL;

/** Everything that defines one run. */
struct RunConfig
{
    RunMode mode = RunMode::TxRaceProfLoopcut;
    /** Fraction of accesses checked in TSanSampling mode. */
    double sampleRate = 1.0;
    /** Machine parameters (seed, cores, costs, HTM geometry...). */
    sim::MachineConfig machine;
    /** Instrumentation-pass parameters. */
    passes::PassConfig passes;
    /** Adaptive fallback governor (TxRace modes only). Disabled by
     *  default: the paper's runtime answers every non-retry abort
     *  with an unconditional slow-path episode. Fault scenarios are
     *  configured separately via machine.faults. */
    GovernorConfig governor;
    /** Monitor-mode overhead budget (TxRace modes only). Disabled by
     *  default; txrace_run --monitor --budget-pct=N enables it and
     *  turns the governor on alongside (they compose). */
    BudgetConfig budget;
    /** Conflict-abort repair (TxRace modes only). Replay keeps a
     *  version log in the fast path so a conflict winner that commits
     *  before TxFail lands can replay its window; TxFail is the
     *  paper's protocol alone (no CLI flag: tests and ablations). */
    SlowPathKind slowpath = SlowPathKind::Replay;
};

/** Results of one run. */
struct RunResult
{
    RunMode mode = RunMode::Native;
    /** Total virtual time. */
    uint64_t totalCost = 0;
    /** Per-bucket cost attribution (Figure 7 breakdown). */
    std::array<uint64_t, sim::kNumBuckets> buckets{};
    /** Snapshot of every counter and gauge the run wrote (machine,
     *  HTM, detector, policy, passes), rendered from the registry. */
    StatSet stats;
    /** Distinct static races reported. */
    detector::RaceSet races;
    /** Telemetry bundle: metric registry, per-thread phase breakdown,
     *  conflict attribution, and the event stream (its timeline is
     *  filled when machine.recordTimeline was set). */
    telemetry::Telemetry telemetry;
    /** Abnormal-end report: deadlock or maxSteps truncation, with
     *  per-thread blocked-on state. error.ok() on a clean run. */
    sim::RunError error;
    /** Monitor-mode budget summary (budget.enabled mirrors whether
     *  the run had a budget at all). */
    BudgetReport budget;

    /** Runtime overhead factor relative to a native run. */
    double
    overheadVs(const RunResult &native) const
    {
        return native.totalCost == 0
            ? 0.0
            : static_cast<double>(totalCost) /
                  static_cast<double>(native.totalCost);
    }
};

/**
 * Run @p prog (an uninstrumented, finalized program) under @p cfg.
 * The driver applies the appropriate instrumentation pipeline
 * internally; for ProfLoopcut it performs the profiling pre-run
 * (whose cost is offline and not included in the result).
 */
RunResult runProgram(const ir::Program &prog, const RunConfig &cfg);

/** Recall of @p tool against @p reference (paper §8.4):
 *  |reported ∩ reference| / |reference|; 1.0 when reference is empty. */
double recallOf(const detector::RaceSet &tool,
                const detector::RaceSet &reference);

} // namespace txrace::core

#endif // TXRACE_CORE_DRIVER_HH
