/**
 * @file
 * The run's one event stream: every protocol step (xbegin, commit,
 * abort with its cause, the TxFail write, slow-path entry and exit,
 * governor and budget transitions, fault edges, abnormal ends) is one
 * typed, 16-byte FrEvent handed to FlightRecorder::note(). A constant
 * table routes each kind to up to two sinks:
 *
 *  - the **ring**: per-thread, fixed-capacity, allocation-free windows
 *    of recent events, drained into a causal forensics block when a
 *    race is reported or a run ends with a structured RunError
 *    (`--explain`, the metrics JSON);
 *  - the **timeline**: one capped run-wide log that the `--trace N`
 *    text view and the `--trace-json` Chrome trace are rendered from
 *    after the run (core/report_format.hh). Per-access kinds (Access,
 *    Sync) stay ring-only, so instrumented accesses do not fill it.
 * Detail strings are formatted only at render time, from a kind's
 * site, arg and flags.
 *
 * Compile-out gate: building with -DTXRACE_NO_FLIGHTREC removes the
 * ring sink, so production builds pay nothing for it (the CI ratio
 * gate on BM_EndToEndFlightRec / BM_EndToEndNoFlightRec holds the
 * enabled cost within 3%). The timeline keeps working in that build.
 */

#ifndef TXRACE_TELEMETRY_FLIGHTREC_HH
#define TXRACE_TELEMETRY_FLIGHTREC_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace txrace::telemetry {

/** Kind of one recorded event. */
enum class FrKind : uint8_t {
    Access,     ///< instrumented memory access (site + granule)
    TxBegin,    ///< fast-path transaction began (flags = FrBegin)
    TxCommit,   ///< transaction committed (arg = base cost inside)
    TxAbort,    ///< transaction aborted (arg = FrAbort reason)
    Sync,       ///< synchronization op performed (site)
    SlowEnter,  ///< thread entered a slow-path episode (arg = reason)
    SlowExit,   ///< slow-path episode ended
    Gov,        ///< region demoted by the governor (arg = new level)
    Budget,     ///< budget gate fired (arg = FrBudget detail)
    WindowReplay, ///< a conflict victim replayed the winner's version-
                  ///< log window (arg = entries)
    // Timeline-only kinds: no ring ever held them, so forensics
    // windows do not change with the timeline.
    TxFailWrite,  ///< the victim published the TxFail flag
    Control,      ///< governor ladder or budget site step (flags =
                  ///< FrControl; arg = new level / sampling shift;
                  ///< site = budget site)
    RunEdge,      ///< run-wide edge (flags = FrRunEdge; arg = fault
                  ///< plan index / live threads / stop-request
                  ///< RunError kind / FrOpen bits)
};

/** Abort reasons carried in FrKind::TxAbort's arg. */
enum class FrAbort : uint8_t {
    Conflict,   ///< real data conflict (victim of requester-wins)
    TxFail,     ///< collateral abort of the TxFail broadcast
    Capacity,   ///< own write/read set overflowed
    Interrupt,  ///< timer interrupt / unknown status
    Retry,      ///< transient retry-bit abort
    HwLimit,    ///< xbegin refused: out of hardware threads
};

/** Budget-gate details carried in FrKind::Budget's arg. */
enum class FrBudget : uint8_t {
    RegionGated,  ///< region admitted uninstrumented
    CheckGated,   ///< slow-path check refused by the window gate
    Unsatisfiable ///< budget declared unsatisfiable
};

/** @name Per-kind flags values (4 bits), one set per FrKind; plain
 *  enums, so call sites pass them without casts. */
/** @{ */
/** FrKind::TxBegin: which protocol step (re)began the transaction. */
struct FrBegin { enum : uint8_t { Plain, Region, Backoff }; };
/** FrKind::TxCommit: region end or a loop-cut segment. */
struct FrCommit { enum : uint8_t { RegionEnd, LoopCut }; };
/** FrKind::SlowEnter: why the episode began. */
struct FrSlow {
    enum : uint8_t {
        SmallRegion, Governor, HwLimit, TxFail, Conflict, Capacity,
        Interrupt, RetryExhausted
    };
};
/** FrKind::Control: the governor ladder step or budget site step. */
struct FrControl {
    enum : uint8_t {
        DemoteLivelock, DemoteAbortRate, DemoteSlowCost, GovProbe,
        GovStallProbe, GovLivelock, BudgetCut, BudgetProbe
    };
};
/** FrKind::RunEdge: a fault episode edge, an abnormal end, or a
 *  thread exiting with spans open. */
struct FrRunEdge {
    enum : uint8_t {
        FaultBegin, FaultEnd, Deadlock, Truncated, StopRequest, ThreadExit
    };
};
/** FrRunEdge::ThreadExit's arg: bit set = that span was still open. */
struct FrOpen { enum : uint8_t { Tx = 1, Slow = 2 }; };
/** @} */

constexpr uint32_t
frKindBit(FrKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}
static_assert(frKindBit(FrKind::RunEdge) <= 1u << 15,
              "FrKind must fit FrEvent's 4-bit kind field");

/** Sink routing, one bit per FrKind: the ring takes the kinds a
 *  forensics window shows (Access..WindowReplay); the timeline takes
 *  the kinds the text and Chrome views render (all but Access and
 *  Sync). */
constexpr uint32_t kRingKinds = 2 * frKindBit(FrKind::WindowReplay) - 1;
constexpr uint32_t kTimelineKinds =
    (2 * frKindBit(FrKind::RunEdge) - 1) &
    ~(frKindBit(FrKind::Access) | frKindBit(FrKind::Sync));

/** True when an event of @p kind with payload @p arg goes to the
 *  timeline. The one payload rule: of the Budget events only the
 *  region gate is drawn, so the per-check gates stay ring-only like
 *  the accesses they stand for. Kind and arg are constants at every
 *  call site, so this folds at compile time. */
constexpr bool
frOnTimeline(FrKind kind, uint64_t arg)
{
    return (kTimelineKinds & frKindBit(kind)) &&
           (kind != FrKind::Budget ||
            arg == static_cast<uint64_t>(FrBudget::RegionGated));
}

/** Display name of a flight-event kind (stable, used in JSON). */
const char *frKindName(FrKind kind);
/** Display name of an abort reason (stable, used in JSON). */
const char *frAbortName(FrAbort reason);
/** Display name of a budget-gate detail (stable, used in JSON). */
const char *frBudgetName(FrBudget detail);

/**
 * One recorded event, packed to 16 bytes (4 per cache line) so a full
 * ring stays small: per-thread ring traffic is the recorder's dominant
 * cost, and it shows up as cache pressure on the simulator's own hot
 * structures, not as store latency. Site/kind/flags share one word;
 * the step is truncated to 32 bits (rings only ever hold a recent
 * window, so relative order within a window is what matters).
 */
struct FrEvent
{
    /** Kind-dependent payload (see FrKind). */
    uint64_t arg = 0;
    /** Scheduler step of the event (low 32 bits). */
    uint32_t step = 0;
    /** site:24 | kind:4 | flags:4; site 0xffffff means "none". */
    uint32_t meta = kNoSite;

    static constexpr uint32_t kNoSite = 0xffffffu;

    static FrEvent
    make(uint64_t step, uint64_t arg, uint32_t site, FrKind kind,
         uint8_t flags)
    {
        FrEvent e;
        e.arg = arg;
        e.step = static_cast<uint32_t>(step);
        e.meta = (site & kNoSite) |
                 (static_cast<uint32_t>(kind) << 24) |
                 (static_cast<uint32_t>(flags & 0xf) << 28);
        return e;
    }

    /** Static IR site (Access/Sync), ~0u when not applicable. */
    uint32_t site() const
    {
        uint32_t s = meta & kNoSite;
        return s == kNoSite ? ~0u : s;
    }
    FrKind kind() const
    {
        return static_cast<FrKind>((meta >> 24) & 0xf);
    }
    /** Kind-dependent flags (see FrKind). */
    uint8_t flags() const { return static_cast<uint8_t>(meta >> 28); }
    /** Bit 0: the access was a write (Access events only). */
    bool isWrite() const { return flags() & 1; }
};
static_assert(sizeof(FrEvent) == 16, "FrEvent must stay 16 bytes");

/** One timeline entry: the packed event plus what a ring keeps
 *  implicitly — the thread, and the full 64-bit step. */
struct FrEntry
{
    FrEvent ev;
    uint64_t step = 0;
    uint32_t tid = 0;
};

/**
 * The recorder: one instance per Machine (inside the Telemetry
 * bundle). Both sinks start disabled; the ring's per-thread windows
 * grow lazily on each thread's first event and are fixed-size after
 * that, and the timeline grows up to kTimelineCap entries.
 */
class FlightRecorder
{
  public:
    /** Ring capacity per thread (power of two; the window a
     *  forensics capture can drain). */
    static constexpr uint32_t kCapacity = 64;
    /** Timeline cap; later entries are counted as dropped. */
    static constexpr size_t kTimelineCap = size_t{1} << 20;

#ifdef TXRACE_NO_FLIGHTREC
    static constexpr bool kCompiledIn = false;
#else
    static constexpr bool kCompiledIn = true;
#endif

    /** Turn the ring sink on (MachineConfig::recordFlight); no-op when
     *  the ring is compiled out. */
    void enableRing() { ringOn_ = kCompiledIn; }
    /** Turn the timeline sink on (MachineConfig::recordTimeline). */
    void enableTimeline() { timelineOn_ = true; }

    bool ringEnabled() const { return ringOn_; }
    bool timelineEnabled() const { return timelineOn_; }

    /** Record one event of thread @p tid into every enabled sink its
     *  kind is routed to. Hot path: returns at once when no sink takes
     *  the kind; a ring store is a masked write after a possible lazy
     *  allocation on the thread's first event. At call sites the kind
     *  is a constant, so the routing tables fold away: an Access event
     *  tests the ring toggle only. */
    void
    note(uint32_t tid, FrKind kind, uint64_t step, uint32_t site = ~0u,
         uint64_t arg = 0, uint8_t flags = 0)
    {
        const uint32_t bit = frKindBit(kind);
        const bool to_ring = kCompiledIn && (kRingKinds & bit) && ringOn_;
        const bool to_timeline = frOnTimeline(kind, arg) && timelineOn_;
        if (!to_ring && !to_timeline)
            return;
        const FrEvent e = FrEvent::make(step, arg, site, kind, flags);
        if (to_ring) {
            if (tid >= rings_.size())
                rings_.resize(tid + 1);
            Ring &r = rings_[tid];
            r.ev[r.n & (kCapacity - 1)] = e;
            ++r.n;
        }
        if (to_timeline)
            append(FrEntry{e, step, tid});
    }

    /** Number of threads that ever recorded a ring event. */
    size_t threads() const { return rings_.size(); }

    /** Events ever offered to thread @p tid's ring (≥ kept: the ring
     *  keeps the newest kCapacity). */
    uint64_t offered(uint32_t tid) const
    {
        return tid < rings_.size() ? rings_[tid].n : 0;
    }

    /** The retained window of thread @p tid, oldest first. */
    std::vector<FrEvent> window(uint32_t tid) const;

    /** Stored timeline entries, in recording order. */
    const std::vector<FrEntry> &timeline() const { return timeline_; }
    /** Entries rejected because the timeline was full. */
    uint64_t dropped() const { return dropped_; }
    /** The first rejected entry (meaningful when dropped() > 0): where
     *  recording stopped. */
    const FrEntry &firstDropped() const { return firstDropped_; }

    /** Drop all recorded state (rings stay allocated). */
    void clear();

  private:
    struct Ring
    {
        std::array<FrEvent, kCapacity> ev{};
        uint64_t n = 0;  ///< events ever offered; head = n % kCapacity
    };

    /** Timeline store with the cap check. */
    void append(const FrEntry &entry);

    bool ringOn_ = false;
    bool timelineOn_ = false;
    /** vector, not deque: operator[] is on the per-access hot path
     *  and no caller holds a Ring reference across note() calls, so
     *  the cheaper indexing wins and growth may relocate. */
    std::vector<Ring> rings_;
    std::vector<FrEntry> timeline_;
    uint64_t dropped_ = 0;
    FrEntry firstDropped_;
};

/** One thread's contribution to a forensics capture. */
struct ForensicsThread
{
    uint32_t tid = 0;
    /** Governor ladder level at capture time (0 = full fast path). */
    uint64_t govLevel = 0;
    /** Budget sampling shift of the racing site for this thread's
     *  endpoint (0 when monitor mode is off). */
    uint64_t siteShift = 0;
    /** The drained ring, oldest first. */
    std::vector<FrEvent> window;
    /** Distinct granules read / written inside the window (the
     *  aborting transaction's footprint, over-approximated to the
     *  whole retained window). Sorted ascending. */
    std::vector<uint64_t> readGranules;
    std::vector<uint64_t> writeGranules;
};

/** One entry of a capture's last-writer chain. */
struct ForensicsWrite
{
    uint64_t step = 0;
    uint32_t tid = 0;
    uint32_t site = ~0u;
    uint64_t granule = 0;
};

/**
 * A causal snapshot taken at the instant a race was reported or a
 * structured RunError ended the run: the involved threads' retained
 * windows plus the write chain on the racing granule. Serialized as
 * the txrace-forensics-v1 block of the metrics JSON and rendered by
 * `txrace_run --explain`.
 */
struct ForensicsCapture
{
    /** "race" or a RunError kind name (deadlock/truncated/budget). */
    std::string trigger;
    /** Scheduler step of the capture. */
    uint64_t step = 0;
    /** Racing static sites (race trigger only; ~0u otherwise). */
    uint32_t siteA = ~0u;
    uint32_t siteB = ~0u;
    /** Race kind name at detection ("" for RunError triggers). */
    std::string kind;
    /** Racing memory granule (race trigger only). */
    uint64_t granule = 0;
    /** Involved threads' windows, ordered by tid. */
    std::vector<ForensicsThread> threads;
    /** Write events on the racing granule across the drained windows,
     *  step-ordered (the last-writer chain; newest last). */
    std::vector<ForensicsWrite> lastWriters;
};

/**
 * Assemble the per-thread half of a capture from @p rec: drain
 * @p tid's window and compute its read/write footprints.
 */
ForensicsThread drainThread(const FlightRecorder &rec, uint32_t tid);

/**
 * Compute the last-writer chain over already-drained @p threads:
 * every Access-write event on @p granule, step-ordered, capped to the
 * newest @p limit entries.
 */
std::vector<ForensicsWrite>
lastWriterChain(const std::vector<ForensicsThread> &threads,
                uint64_t granule, size_t limit = 8);

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_FLIGHTREC_HH
