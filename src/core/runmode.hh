/**
 * @file
 * The detection configurations the evaluation compares.
 */

#ifndef TXRACE_CORE_RUNMODE_HH
#define TXRACE_CORE_RUNMODE_HH

#include <cstdint>

namespace txrace::core {

/** Which tool monitors the execution. */
enum class RunMode {
    Native,             ///< uninstrumented (the overhead baseline)
    TSan,               ///< always-on happens-before detection
    TSanSampling,       ///< TSan checking a fraction of accesses
    Eraser,             ///< lockset detection (ablation baseline)
    RaceTM,             ///< hardware-only HTM reporting (§9 ablation)
    TxRaceNoOpt,        ///< two-phase, no loop-cut optimization
    TxRaceDynLoopcut,   ///< loop-cut threshold learned online (§4.3)
    TxRaceProfLoopcut,  ///< loop-cut threshold profiled beforehand
};

/** Display name, matching the paper's legends. */
const char *runModeName(RunMode mode);

/** How a conflict abort is repaired before the fast path resumes. */
enum class SlowPathKind : uint8_t {
    /** The default: the TxFail protocol, plus a version log whose
     *  window up to a won conflict the winner replays through the
     *  detector right after it commits, in case it committed before
     *  TxFail landed (§6). */
    Replay,
    /** The paper's protocol alone: TxFail demotes every in-flight
     *  transaction to a slow region; no version log, no replay. */
    TxFail,
};

constexpr const char *
slowPathKindName(SlowPathKind k)
{
    return k == SlowPathKind::Replay ? "replay" : "txfail";
}

/** True for the three TxRace variants. */
constexpr bool
isTxRaceMode(RunMode mode)
{
    return mode == RunMode::TxRaceNoOpt ||
           mode == RunMode::TxRaceDynLoopcut ||
           mode == RunMode::TxRaceProfLoopcut;
}

} // namespace txrace::core

#endif // TXRACE_CORE_RUNMODE_HH
