/**
 * @file
 * FastTrack-style sound and complete happens-before race detector —
 * the reproduction of the paper's slow path (ThreadSanitizer) and of
 * the TSan baseline it is compared against.
 *
 * The detector has two halves:
 *  - synchronization tracking (lock / condvar / barrier / thread
 *    lifecycle vector-clock updates), which TxRace keeps running even
 *    on the fast path so that later slow-path episodes see correct
 *    happens-before order (paper §5, Figure 6);
 *  - per-granule shadow-memory access checking, which only runs for
 *    accesses the active policy chooses to check (always under TSan,
 *    only in slow-path episodes under TxRace, probabilistically under
 *    TSan+sampling).
 *
 * Shadow cells hold the last write epoch and a set of concurrent read
 * epochs. With `maxShadowCells == 0` the read set is unbounded and the
 * detector is sound for the analyzed execution (the paper configures
 * TSan "to have enough shadow cells to be sound"); a positive bound
 * models stock TSan's fixed shadow (random eviction ⇒ possible false
 * negatives).
 */

#ifndef TXRACE_DETECTOR_FASTTRACK_HH
#define TXRACE_DETECTOR_FASTTRACK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "detector/report.hh"
#include "detector/vectorclock.hh"
#include "mem/layout.hh"
#include "support/rng.hh"

namespace txrace::detector {

/** Tunables for HbDetector. */
struct DetectorConfig
{
    /** 0 = unbounded (sound); N > 0 caps read epochs per granule. */
    uint32_t maxShadowCells = 0;
};

/**
 * Fixed-layout detector counters. read()/write() run once per checked
 * access — the hottest detector code — so they bump plain integers;
 * the machine publishes them into its metrics registry at the end of
 * the run, under the detector.* names.
 */
struct DetCounters
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t raceHits = 0;
    /** Read state collapsed to a single epoch (FastTrack's O(1)
     *  representation; the paper reports >99% of reads stay here). */
    uint64_t readEpochSufficient = 0;
    /** Read state held multiple concurrent epochs (promoted VC). */
    uint64_t readVcPromoted = 0;
    /** Bounded-shadow random evictions (maxShadowCells > 0 only). */
    uint64_t evictions = 0;
    /** Checks performed through the replay entry (also
     *  counted in reads/writes; this isolates replay volume). */
    uint64_t replayChecks = 0;
};

/** Sound (configurable) and complete happens-before detector. */
class HbDetector
{
  public:
    /** @p seed seeds the bounded-shadow eviction RNG; the machine
     *  derives it from its own seed. */
    explicit HbDetector(const DetectorConfig &cfg = {}, uint64_t seed = 1);

    /** @name Thread lifecycle */
    /** @{ */
    /** Register the root thread (no parent). */
    void rootThread(Tid t);
    /** Child inherits the parent's clock; both sides tick. */
    void threadCreated(Tid parent, Tid child);
    /** Joiner acquires the joined thread's final clock. */
    void threadJoined(Tid joiner, Tid joined);
    /** @} */

    /** @name Synchronization (vector-clock updates) */
    /** @{ */
    void lockAcquire(Tid t, uint64_t lock_id);
    void lockRelease(Tid t, uint64_t lock_id);
    /** Release half of a condvar/semaphore post. */
    void condSignal(Tid t, uint64_t cond_id);
    /** Acquire half, called when the waiter resumes. */
    void condWait(Tid t, uint64_t cond_id);
    /** All @p participants arrived; merge and redistribute clocks. */
    void barrierRelease(const std::vector<Tid> &participants);
    /** @} */

    /** @name Memory access checking */
    /** @{ */
    /** Check+record a read of the granule containing @p addr. */
    void read(Tid t, ir::Addr addr, ir::InstrId instr);
    /** Check+record a write of the granule containing @p addr. */
    void write(Tid t, ir::Addr addr, ir::InstrId instr);
    /**
     * Window-scoped entry: check one access replayed from a version
     * log. Detection semantics are identical to read()/write() — the
     * replaying thread's clock is its live clock, which is exact
     * because transactional regions are synchronization-free (the
     * clock cannot have advanced between the logged access and the
     * replay) — but the volume is counted separately
     * (detector.replay_checks) so telemetry can attribute it.
     */
    void
    replayAccess(Tid t, ir::Addr addr, ir::InstrId instr,
                 bool is_write)
    {
        ++counters_.replayChecks;
        if (is_write)
            write(t, addr, instr);
        else
            read(t, addr, instr);
    }
    /** @} */

    /** Races found so far. */
    const RaceSet &races() const { return races_; }
    RaceSet &races() { return races_; }

    /**
     * Callback fired on each *new* static race (not on hit-counter
     * bumps): the recorded race, the thread whose access triggered the
     * detection, and the other endpoint's thread (recovered from the
     * shadow cell's epoch). The forensics layer hooks here to drain
     * flight-recorder windows at the exact detection instant.
     * First-detection-only keeps the hook deterministic and off the
     * per-hit hot path.
     */
    using RaceObserver =
        std::function<void(const Race &, Tid current, Tid other)>;
    void setRaceObserver(RaceObserver obs) { observer_ = std::move(obs); }

    /** Current clock of thread @p t (tests, runtime diagnostics). */
    const VectorClock &
    clockOf(Tid t) const
    {
        static const VectorClock empty;
        return t < clocks_.size() ? clocks_[t] : empty;
    }

    /** Raw counters (checks performed, races, evictions). */
    const DetCounters &counters() const { return counters_; }

    /** Forget all shadow state but keep clocks (tests only). */
    void
    dropShadow()
    {
        pages_.clear();
        farPages_.clear();
    }

  private:
    /** One recorded access: FastTrack's epoch and the instruction,
     *  packed in 16 bytes. clock == 0 means "no access yet". */
    struct Access
    {
        uint64_t clock = 0;
        Tid tid = 0;
        ir::InstrId instr = ir::kNoInstr;
    };

    /**
     * A granule's last write and concurrent reads. The read set is
     * inline while it holds one entry (FastTrack's epoch case, almost
     * every read) and moves to a heap array the first time reads are
     * concurrent. Entries leave by swap-remove, so their order — the
     * order races are reported in, the indices eviction draws from —
     * is a vector's.
     */
    struct ShadowCell
    {
        Access write;
        Access one;        ///< the read set until it first spills
        uint32_t nReads = 0;
        uint32_t cap = 0;  ///< 0 until spilled, then heap's capacity
        std::unique_ptr<Access[]> heap;

        Access *reads() { return cap ? heap.get() : &one; }
    };

    /**
     * Shadow cells are paged like VirtualMemory: 128 granules (1 KiB)
     * per page, allocated on first touch, found through a page table
     * indexed by page number (no hashing). Pages past kMaxDirectPages
     * (wild addresses, no declared address space) go to a hash map.
     */
    static constexpr unsigned kShadowPageBits = 7;
    static constexpr uint64_t kShadowPageMask =
        (1ull << kShadowPageBits) - 1;
    static constexpr uint64_t kMaxDirectPages = 1ull << 16;

    using ShadowPage = std::array<ShadowCell, kShadowPageMask + 1>;

    /** The shadow cell of @p granule (its page made on first touch). */
    ShadowCell &
    cellAt(uint64_t granule)
    {
        const uint64_t no = granule >> kShadowPageBits;
        ShadowPage *page = no < pages_.size() ? pages_[no].get() : nullptr;
        if (!page) [[unlikely]]
            page = &newPage(no);
        return (*page)[granule & kShadowPageMask];
    }
    ShadowPage &newPage(uint64_t no);

    /** True if @p a is another thread's access that @p vc does not
     *  cover (an empty entry, clock 0, always is): a race. */
    static bool
    unordered(const Access &a, Tid t, const VectorClock &vc)
    {
        return a.tid != t && a.clock > vc.get(a.tid);
    }

    VectorClock &clock(Tid t);

    DetectorConfig cfg_;
    Rng rng_;
    std::vector<VectorClock> clocks_;
    std::unordered_map<uint64_t, VectorClock> lockClocks_;
    std::unordered_map<uint64_t, VectorClock> condClocks_;
    std::vector<std::unique_ptr<ShadowPage>> pages_;
    std::unordered_map<uint64_t, std::unique_ptr<ShadowPage>> farPages_;
    /** Record + notify helper shared by the three detection sites. */
    void reportRace(ir::InstrId a, ir::InstrId b, RaceKind kind,
                    ir::Addr addr, Tid current, Tid other);

    RaceSet races_;
    DetCounters counters_;
    RaceObserver observer_;
};

} // namespace txrace::detector

#endif // TXRACE_DETECTOR_FASTTRACK_HH
