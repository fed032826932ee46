/**
 * @file
 * Workload `monitor-stream`: production-monitor traffic, following
 * HardRace's framing of a hard overhead budget that must hold without
 * losing recall. A closed loop on one thread runs `apache-stream`
 * under TxRace with the monitor at a 5% budget (governor on), as long
 * runs cycling through a 32-seed list. Every region is below the
 * K=5 small-region cut, so the HTM model does nothing and FastTrack
 * does all the checking: an HTM-only change must show no change here,
 * while a detector or budget change shows most.
 */

#include <cstdio>
#include <map>

#include "common.hh"
#include "core/metrics_export.hh"
#include "support/stats.hh"

namespace perfbench {

namespace {

constexpr const char *kApp = "apache-stream";
constexpr uint32_t kWorkers = 4;
constexpr uint64_t kScale = 16;
constexpr uint64_t kSeeds = 32;
constexpr double kBudgetPct = 5.0;
constexpr int kSetupReps = 9;

/** TxRace with the monitor on: budget controller plus governor, as
 *  `txrace_run --monitor` configures them. */
core::RunConfig
configFor(const workloads::AppModel &app, uint64_t seed)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = seed;
    cfg.governor.enabled = true;
    cfg.budget.enabled = true;
    cfg.budget.budgetPct = kBudgetPct;
    return cfg;
}

/** One monitored run, checked and recorded. Traced runs also fold a
 *  site profile, as campaign jobs do; returns the ms that took. */
double
monitorRun(const workloads::AppModel &app, uint64_t seed,
           std::map<uint64_t, std::pair<uint64_t, size_t>> &ref,
           Tally &tally, Tracer &tracer, uint64_t &overWindows)
{
    double ms = 0.0;
    core::RunResult result = timedRun(app, configFor(app, seed), kTxrace,
                                      tally, tracer, ms);
    tally.runMs.push_back(ms);
    tally.loopSteps += result.error.stepsExecuted;

    auto checkSpan = tracer.span("bench.check");
    Verdict verdict = checkRun(app, result, kTxrace);
    tally.record(verdict, "seed " + std::to_string(seed));
    auto [it, first] =
        ref.try_emplace(seed, result.totalCost, result.races.count());
    if (first) {
        tally.keep(app, kTxrace, seed, result);
        tally.matched += verdict.matched;
        tally.expected += verdict.expected;
        tally.falsePositives += verdict.falsePositives;
        for (const core::BudgetWindow &w : result.budget.windows)
            overWindows += w.hardOver;
    } else if (it->second !=
               std::make_pair(result.totalCost, result.races.count())) {
        tally.fail("seed " + std::to_string(seed) +
                   ": repeated run differs from the first");
    }
    if (!tracer.enabled())
        return 0.0;
    Clock::time_point p0 = Clock::now();
    auto span = tracer.span("telemetry.buildRunProfile");
    core::buildRunProfile(app.name, result);
    return msSince(p0);
}

} // namespace

Report
runMonitorStream(const Args &args, Tracer &tracer)
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < kSeeds; ++i)
        seeds.push_back(kSeeds * args.seed + i + 1);

    Report report;
    char header[200];
    std::snprintf(header, sizeof header,
                  "monitor-stream: %s under the monitor at a %.0f%% "
                  "budget, seeds %llu..%llu, scale %llu, %u simulated "
                  "workers",
                  kApp, kBudgetPct, (unsigned long long)seeds.front(),
                  (unsigned long long)seeds.back(),
                  (unsigned long long)kScale, kWorkers);
    report.header = header;

    workloads::WorkloadParams params;
    params.nWorkers = kWorkers;
    params.scale = kScale;
    params.calibrate = false;
    // Set-up is everything before the measured loop: the model and
    // the Native baseline of each seed, which the overhead needs.
    workloads::AppModel app;
    Tally tally;
    std::map<uint64_t, uint64_t> nativeCost;
    auto setUp = [&](Tracer &tr) {
        {
            auto build = tr.span("workloads.build");
            app = workloads::makeApp(kApp, params);
        }
        tally = Tally();
        for (uint64_t seed : seeds)
            nativeCost[seed] = nativeBaseline(app, seed, tally, tr);
    };
    Tracer idle(false);
    double setupSeconds = 0.0;
    double elidedFrac = 0.0;
    if (tracer.enabled()) {
        auto span = tracer.span("bench.setup");
        setUp(tracer);
        elidedFrac = probeLayers({app}, tracer, false);
    } else {
        setupSeconds = medianSetupSeconds(kSetupReps, [&] { setUp(idle); });
    }

    std::map<uint64_t, std::pair<uint64_t, size_t>> ref;
    Tally untraced;
    uint64_t overWindows = 0;
    double tracedMs = 0.0, untracedMs = 0.0;
    Clock::time_point loop0 = Clock::now();
    for (uint64_t cycle = 0;; ++cycle) {
        // A traced cycle of every seed, then the same cycle untraced;
        // their wall ratio is the tracing overhead.
        Clock::time_point t0 = Clock::now();
        double probeMs = 0.0;
        for (uint64_t seed : seeds)
            probeMs += monitorRun(app, seed, ref, tally, tracer, overWindows);
        tracedMs += msSince(t0) - probeMs;
        if (tracer.enabled()) {
            t0 = Clock::now();
            for (uint64_t seed : seeds)
                monitorRun(app, seed, ref, untraced, idle, overWindows);
            untracedMs += msSince(t0);
        }
        if (msSince(loop0) >= args.seconds * 1e3)
            break;
    }
    tally.loopSeconds = msSince(loop0) / 1e3;
    mergeAttempts(tally, untraced);

    std::vector<double> overheads;
    for (uint64_t seed : seeds)
        overheads.push_back(double(ref.at(seed).first) /
                            double(nativeCost.at(seed)));
    double txrace = geoMean(overheads);

    if (tracer.enabled()) {
        LayerExtras extras;
        extras.elidedFrac = elidedFrac;
        extras.traceOverhead = untracedMs > 0 ? tracedMs / untracedMs : 0;
        addCommonPerLayer(report, tally, tracer, extras);
    } else {
        addCommonEndToEnd(report, tally, setupSeconds, txrace, 0.9);
    }
    report.info.push_back(
        {"budget_over_windows", double(overWindows), "count"});
    report.info.push_back(
        {"budget.windows", double(tally.counters[kTxrace].get(
                               "budget.windows")),
         "count"});
    finish(report, tally);
    return report;
}

} // namespace perfbench
