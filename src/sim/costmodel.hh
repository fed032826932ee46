/**
 * @file
 * Virtual-time cost model.
 *
 * Every experiment in the paper reports *relative* runtime overhead
 * (instrumented time / native time). The simulator reproduces that by
 * charging each executed operation a virtual cost; the tools under
 * study add their own costs on top (transaction begin/end, shadow
 * checks, rollbacks). Absolute values are arbitrary units; only the
 * ratios are meaningful, which is also all the paper claims.
 */

#ifndef TXRACE_SIM_COSTMODEL_HH
#define TXRACE_SIM_COSTMODEL_HH

#include <cstddef>
#include <cstdint>

namespace txrace::sim {

/**
 * Per-operation virtual-time costs (arbitrary units). Every cost is a
 * constant of the model except the two a run may set: checkScale
 * (calibrated per application) and fastHookCost (an ablation knob).
 */
struct CostModel
{
    /** @name Application costs (accrue in every run mode) */
    /** @{ */
    static constexpr uint64_t loadCost = 1;
    static constexpr uint64_t storeCost = 1;
    static constexpr uint64_t syncCost = 12;      ///< lock/unlock/signal/wait/barrier
    static constexpr uint64_t syscallCost = 6;    ///< added to the instruction's own cost
    static constexpr uint64_t threadOpCost = 60;  ///< create/join
    /** @} */

    /** @name Tool costs */
    /** @{ */
    /** xbegin plus the instrumented TxFail read (fast path). */
    static constexpr uint64_t txBeginCost = 20;
    /** xend. */
    static constexpr uint64_t txEndCost = 14;
    /** Fast-path per-access hook (the hook body does nothing). */
    uint64_t fastHookCost = 0;
    /** Happens-before tracking of one sync op (runs on both paths). */
    static constexpr uint64_t syncTrackCost = 4;
    /**
     * Software shadow check per instrumented access (slow path and
     * the TSan baseline). Scaled by checkScale.
     */
    static constexpr uint64_t checkCost = 9;
    /**
     * Application-specific multiplier on checkCost modeling shadow
     * contention / locality effects — this is what makes TSan's
     * overhead vary by two orders of magnitude across the paper's
     * applications (1.85x for blackscholes vs 1195x for vips).
     */
    double checkScale = 1.0;
    /** Flat penalty for processing one transactional abort. */
    static constexpr uint64_t rollbackCost = 30;
    /**
     * Flat setup cost of one winner replay: reading the winner's
     * version log and priming the detector (the per-entry replay
     * checks are charged at effectiveCheckCost on top).
     */
    static constexpr uint64_t windowReplaySetupCost = 18;
    /** @} */

    /** Effective per-access software check cost. */
    uint64_t
    effectiveCheckCost() const
    {
        double c = static_cast<double>(checkCost) * checkScale;
        return c < 1.0 ? 1 : static_cast<uint64_t>(c);
    }
};

/**
 * Cost-attribution buckets, matching the paper's Figure 7 overhead
 * breakdown. Base must equal the native run's total when the executed
 * work is identical; everything else is tool overhead.
 */
enum class Bucket : uint8_t {
    Base,      ///< application work (what the native run also pays)
    Txn,       ///< xbegin/xend + fast-path hooks + HB sync tracking
    Conflict,  ///< slow-path episodes + wasted work due to conflicts
    Capacity,  ///< ditto, due to capacity aborts
    Unknown,   ///< ditto, due to unknown aborts
    Check,     ///< software checks in TSan / TSan+sampling modes
    NumBuckets,
};

constexpr size_t kNumBuckets =
    static_cast<size_t>(Bucket::NumBuckets);

/** Display name of a bucket. */
const char *bucketName(Bucket b);

} // namespace txrace::sim

#endif // TXRACE_SIM_COSTMODEL_HH
