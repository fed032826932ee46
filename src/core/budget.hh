/**
 * @file
 * The monitor-mode budget controller: a hard overhead budget enforced
 * by per-site adaptive sampling.
 *
 * Production monitors must promise "≤ N% over native, always" — a
 * property the FallbackGovernor's global per-thread ladder cannot
 * give, because it reacts to abort storms, not to spend. The budget
 * controller closes that gap:
 *
 * - The run is divided into *windows* of `kWindowBase` units of native
 *   virtual time (the Base cost bucket, which by the accounting
 *   invariant equals what an uninstrumented run would have paid).
 * - Within each window, detection overhead (total cost minus Base) is
 *   compared against the budget `budgetPct% × kWindowBase`. Admission
 *   is gated at a *soft* fraction of that (kSoftFactor), leaving
 *   headroom for overhead that cannot be refused mid-flight (sync
 *   happens-before tracking, regions already under way).
 * - Degradation is *per IR site*, not global: each instrumented
 *   site carries a power-of-two sampling shift (rate 2^-shift).
 *   When a window overruns the soft level, the sites that dominated
 *   the window's attributed spend — slow-path checks plus
 *   conflict-abort waste from the heatmap's winning sites — are cut
 *   deeper; cheap sites stay fully instrumented. Cut sites are
 *   periodically re-probed one step back up, with exponential backoff
 *   per failed probe, so recovery after a storm is automatic.
 * - If the budget is exceeded hard for `kUnsatisfiableWindows`
 *   consecutive windows even while the controller is refusing all it
 *   can, the budget is declared unsatisfiable: the run ends with a
 *   structured RunError::Kind::Budget instead of silently thrashing.
 *
 * Sampling decisions derive from a counter-hash over the run seed —
 * never wall clock — so monitor runs stay byte-deterministic.
 *
 * Soundness: the controller only ever *skips* checks and region
 * instrumentation. Skipping trades recall; it can never invent a
 * race, so precision is untouched (asserted by the monitor soak).
 */

#ifndef TXRACE_CORE_BUDGET_HH
#define TXRACE_CORE_BUDGET_HH

#include <cstdint>
#include <map>
#include <vector>

#include "ir/instruction.hh"
#include "sim/machine.hh"

namespace txrace::core {

/** Configuration of monitor mode (txrace_run --monitor --budget-pct);
 *  the other tunables are BudgetController constants. */
struct BudgetConfig
{
    /** Master switch (txrace_run --monitor). */
    bool enabled = false;
    /** Hard overhead budget: detection cost per window must stay
     *  within this percentage of the window's native base cost. */
    double budgetPct = 5.0;
};

/** One closed budget window, for reports and the soak assertions. */
struct BudgetWindow
{
    /** Native base cost spent in the window (== kWindowBase). */
    uint64_t base = 0;
    /** Detection overhead accrued during the window. */
    uint64_t overhead = 0;
    /** Overhead exceeded the hard budget. */
    bool hardOver = false;
    /** Admissions were refused inside this window. */
    bool refused = false;
};

/** End-of-run summary the driver copies into RunResult. */
struct BudgetReport
{
    bool enabled = false;
    double budgetPct = 0.0;
    uint64_t windowBase = 0;
    /** Every *complete* window, in order. The trailing partial-window
     *  fragment is not recorded: the budget is a windowed SLO. */
    std::vector<BudgetWindow> windows;
    /** Final sampling shift per site that was ever cut (site id →
     *  shift; shift 0 means fully recovered). */
    std::vector<std::pair<ir::InstrId, uint32_t>> siteShifts;
    uint64_t gatedRegions = 0;
    uint64_t gatedChecks = 0;
    uint64_t sampledSkips = 0;
    uint64_t siteCuts = 0;
    uint64_t siteProbes = 0;
};

/**
 * Owned by a TxRacePolicy; all state derives from the machine's cost
 * buckets and the seeded draw hash, so monitor runs stay
 * deterministic.
 */
class BudgetController
{
  public:
    // Tunables of monitor mode (the budget itself is BudgetConfig's).
    /** Window length in units of native (Base-bucket) virtual time. */
    static constexpr uint64_t kWindowBase = 20000;
    /** Admission gates close at kSoftFactor × budget, reserving the
     *  rest for overhead that cannot be refused once started. */
    static constexpr double kSoftFactor = 0.6;
    /** Shift added to a site's sampling exponent per cut. */
    static constexpr uint32_t kCutShift = 2;
    /** Deepest sampling shift (floor rate = 2^-kFloorShift). */
    static constexpr uint32_t kFloorShift = 6;
    /** Clean windows before a cut site is probed one step back up. */
    static constexpr uint32_t kReprobeWindows = 3;
    /** Cap on the per-site probe backoff (doublings of the interval). */
    static constexpr uint32_t kMaxProbeBackoffExp = 4;
    /** Consecutive hard-over windows (while refusing work) that
     *  declare the budget unsatisfiable. */
    static constexpr uint32_t kUnsatisfiableWindows = 6;

    BudgetController(const BudgetConfig &cfg, uint64_t seed);

    bool enabled() const { return cfg_.enabled; }

    /** Intern the controller's counters in @p reg. Must precede the
     *  first admission call: the owning policy calls it at run start,
     *  right after the governor binds. */
    void bindMetrics(telemetry::MetricRegistry &reg);

    /** Snapshot the cost baseline at run start. */
    void onRunStart(sim::Machine &m);

    /**
     * Region-entry admission (TxBegin). False = the region must run
     * uninstrumented (no transaction, no slow path): the current
     * window has already spent its admission budget, or admitting
     * @p cost more would cross the soft line. Admission is
     * prospective — the entire soft-to-hard gap stays reserved for
     * overhead no gate can refuse (sync tracking, gate branches).
     */
    bool admitRegion(sim::Machine &m, Tid t, uint64_t cost = 0);

    /**
     * Slow-path check admission for @p site, whose check would cost
     * @p cost units. False = skip the check (hard-gated when the
     * window is out of budget or when @p cost would push it over the
     * soft line — storms inflate check cost mid-window — otherwise a
     * deterministic per-site sampling draw).
     */
    bool admitCheck(sim::Machine &m, Tid t, ir::InstrId site,
                    uint64_t cost = 0);

    /** Close every window boundary the base clock has crossed. The
     *  admission calls roll first; the policy also rolls from its
     *  per-access and per-sync hooks, so that where admissions are
     *  sparse each window's overhead is still booked to that window. */
    void rollWindows(sim::Machine &m);

    /** Attribute @p cost units of overhead to @p site (slow-path
     *  check cost; conflict-abort waste from the heatmap winner). */
    void chargeSite(ir::InstrId site, uint64_t cost);

    /** True while the current window is at or past the soft admission
     *  level — the governor defers promotions while this holds. */
    bool underPressure() const { return pressure_; }

    /** Budget declared unsatisfiable (the policy turns this into
     *  RunError::Kind::Budget via Machine::requestStop). */
    bool unsatisfiable() const { return unsatisfiable_; }

    /** Current sampling shift of @p site (0 = fully instrumented). */
    uint32_t siteShift(ir::InstrId site) const;

    /** Close the books (no trailing partial window is recorded) and
     *  return the report. Its event counts are read from the registry
     *  bindMetrics() interned them in, which must still be alive. */
    BudgetReport report() const;

  private:
    struct SiteState
    {
        uint32_t shift = 0;
        /** Overhead attributed to the site this window. */
        uint64_t windowCost = 0;
        /** Failed up-probes since the last full recovery. */
        uint32_t probeBackoffExp = 0;
        /** Window index at which the next up-probe is due. */
        uint64_t nextProbeWindow = 0;
        /** An up-probe is being evaluated. */
        bool probing = false;
        /** Per-site draw counter feeding the sampling hash. */
        uint64_t draws = 0;
        /** The site was cut at least once (reported even if it has
         *  recovered to shift 0 by end of run). */
        bool everCut = false;
    };

    uint64_t baseNow(const sim::Machine &m) const;
    uint64_t overheadNow(const sim::Machine &m) const;
    void closeWindow(sim::Machine &m, uint64_t base_end);
    bool sampleDraw(SiteState &s, ir::InstrId site);
    /** Bump a counter (bindMetrics() came first). */
    void count(telemetry::MetricId id) { reg_->add(id); }

    BudgetConfig cfg_;
    uint64_t seed_;

    uint64_t hardAllowed_ = 0;  ///< per-window overhead budget
    uint64_t softAllowed_ = 0;  ///< per-window admission gate

    uint64_t windowStartBase_ = 0;
    uint64_t windowStartOverhead_ = 0;
    uint64_t windowIndex_ = 0;
    bool windowRefused_ = false;
    bool pressure_ = false;
    bool unsatisfiable_ = false;
    uint32_t consecUnsat_ = 0;

    /** std::map: deterministic iteration order for cut decisions. */
    std::map<ir::InstrId, SiteState> sites_;
    std::vector<BudgetWindow> windows_;

    struct Metrics
    {
        telemetry::MetricId windows, windowsOver, windowsSoftOver;
        telemetry::MetricId gatedRegions, gatedChecks, sampledSkips;
        telemetry::MetricId siteCuts, siteProbes, probeFailures;
    };
    telemetry::MetricRegistry *reg_ = nullptr;
    Metrics met_{};
};

} // namespace txrace::core

#endif // TXRACE_CORE_BUDGET_HH
