/**
 * @file
 * Shared pieces of the repository benchmark: the in-memory span
 * tracer, the simulated-output digest, per-run output checks against
 * ground truth, and the metric report every workload fills.
 *
 * The benchmark drives the library only through its public entry
 * points (workloads::makeApp, passes::prepared*, sim::Machine,
 * core::runProgram, core::buildRunProfile, campaign::runCampaign /
 * writeCampaignJson), so spans recorded here sit exactly on the
 * boundaries between the repository's modules.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace txrace;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its span file (empty = nowhere). */
    std::string traceDir;
};

/**
 * Spans around the benchmark's calls into each layer, kept in memory
 * and written out once at the end. A span's layer is its name up to
 * the first '.'. Disabled tracers record nothing and cost one branch.
 * Single-threaded: every span opens and closes on the main thread.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII span; the enclosing open span is its parent. A null or
     *  disabled tracer makes it a no-op. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_ = -1;
    };

    Scope span(const char *name) { return Scope(this, name); }

    /** Sum and count of the durations of spans called @p name. */
    double totalMs(std::string_view name) const;
    uint64_t count(std::string_view name) const;
    double meanMs(std::string_view name) const;

    /** Per-layer self time: span time not covered by child spans. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as a Chrome trace-event document. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        int parent;
    };

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** FNV-1a over the simulated outputs; never over host timings. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(uint64_t value);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The lanes a workload can run; lanes stack host cost (native is
 *  dispatch and scheduling, tsan adds FastTrack, txrace adds the HTM
 *  model and the policy). */
enum Lane { kNative, kTsan, kTxrace, kNumLanes };
const char *laneName(Lane lane);

/** Per-run verdict against the application's ground truth. */
struct Verdict
{
    uint64_t matched = 0;
    uint64_t expected = 0;
    uint64_t falsePositives = 0;
    /** Empty when the run passed. */
    std::string failure;
};

/**
 * Check one run: it must end without a RunError, report no race
 * outside workloads::groundTruthRaces, and reach the application's
 * recall floor for the lane. Native runs must report nothing.
 */
Verdict checkRun(const workloads::AppModel &app,
                 const core::RunResult &result, Lane lane);

/** Host-side totals of the runs of one lane. */
struct LaneHost
{
    double ms = 0.0;
    uint64_t runs = 0;
    uint64_t steps = 0;
};

/** Everything a workload measured, checked and counted. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Descriptions of the first few failures. */
    std::vector<std::string> failures;
    /** Host latency of each run (ms). */
    std::vector<double> runMs;
    /** Wall time of the measured loop and the steps it simulated. */
    double loopSeconds = 0.0;
    uint64_t loopSteps = 0;
    std::array<LaneHost, kNumLanes> lanes{};
    /** Counters summed over the distinct runs, per lane. */
    std::array<StatSet, kNumLanes> counters;
    uint64_t matched = 0;
    uint64_t expected = 0;
    uint64_t falsePositives = 0;
    Digest digest;

    void fail(const std::string &why, uint64_t runs = 1);
    /** Count one attempted run and fold its verdict's failure. */
    void record(const Verdict &verdict, const std::string &what);
    /** Keep a distinct run's simulated outputs: fold its identity,
     *  total cost, cost buckets, race fingerprints, every counter and
     *  the budget windows into the digest, and sum its counters. */
    void keep(const workloads::AppModel &app, Lane lane, uint64_t seed,
              const core::RunResult &result);
};

/** Run @p app under @p cfg inside a `core.runProgram` span and add it
 *  to @p lane's host totals; @p ms receives its wall time. */
core::RunResult timedRun(const workloads::AppModel &app,
                         const core::RunConfig &cfg, Lane lane,
                         Tally &tally, Tracer &tracer, double &ms);

/** Run, check and keep the Native baseline of @p app at @p seed;
 *  returns its virtual time. */
uint64_t nativeBaseline(const workloads::AppModel &app, uint64_t seed,
                        Tally &tally, Tracer &tracer);

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What a workload hands back to main for printing. */
struct Report
{
    std::string header;
    /** Gated metrics (BENCHMARK.json end_to_end), untraced runs only. */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (BENCHMARK.json per_layer), traced run only. */
    std::vector<Metric> perLayer;
    /** Printed for people, not gated (host speed, zero-valued or
     *  workload-only). */
    std::vector<Metric> info;
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t digest = 0;
    std::vector<std::string> failures;
};

/** The workloads. @p tracer is enabled for the traced run only. */
Report runTable1(const Args &args, Tracer &tracer);
Report runHunt(const Args &args, Tracer &tracer);
Report runMonitorStream(const Args &args, Tracer &tracer);

/**
 * Traced-run probes of the layers runProgram hides: prepare each
 * app's TxRace build (and TSan build when @p withTsan) and construct
 * a Machine on the TxRace build, under spans. Returns the static
 * elision share: elided ÷ candidate accesses over all apps.
 */
double probeLayers(const std::vector<workloads::AppModel> &apps,
                   Tracer &tracer, bool withTsan);

/** Fold @p from's attempts and failures into @p into. */
void mergeAttempts(Tally &into, const Tally &from);

double median(std::vector<double> values);
double peakRssMb();

/** Run @p body @p reps times; the median wall seconds of one run. */
template <typename F>
double
medianSetupSeconds(int reps, F &&body)
{
    std::vector<double> secs;
    for (int i = 0; i < reps; ++i) {
        Clock::time_point t0 = Clock::now();
        body();
        secs.push_back(msSince(t0) / 1e3);
    }
    return median(secs);
}

/** Append the end-to-end metrics every workload shares. @p tailLevel
 *  is the workload's fixed tail percentile (0.9 or 0.99); it drops
 *  only if fewer than ten samples lie beyond it. */
void addCommonEndToEnd(Report &report, const Tally &tally,
                       double setupSeconds, double simOverheadTxrace,
                       double tailLevel);

/** Per-layer values only one workload's code path can measure. */
struct LayerExtras
{
    /** Static elision: elided ÷ candidate accesses over the apps. */
    double elidedFrac = 0.0;
    /** Traced wall ÷ untraced wall of the same units of work. */
    double traceOverhead = 0.0;
    /** Σ job wall ÷ (pool threads × campaign wall). */
    double poolBusyFrac = 0.0;
    double steals = 0.0;
    double dedupRatio = 0.0;
};

/** Append every per-layer metric: counters summed over the distinct
 *  runs, lane host costs, and span means and self times. Layers a
 *  workload does not drive report 0. */
void addCommonPerLayer(Report &report, const Tally &tally,
                       const Tracer &tracer, const LayerExtras &extras);

/** Fill the verdict/digest fields of @p report from @p tally. */
void finish(Report &report, const Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
