/**
 * @file
 * Workload `table1`: the paper's own evaluation. A closed loop on one
 * thread runs all 14 Table-1 applications under Native, TSan and
 * TxRace (ProfLoopcut, window slow path: the shipped defaults), one
 * seed per pass, cycling through an eight-seed list. It is the only
 * workload with a TSan lane and a ProfLoopcut profiling pre-run, and
 * the TxRace lane dominates its host time, so HTM, policy and pass
 * changes show here. Per-app calibration is set-up work.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "common.hh"
#include "core/metrics_export.hh"
#include "support/stats.hh"

namespace perfbench {

namespace {

constexpr uint32_t kWorkers = 4;
constexpr uint64_t kScale = 16;
constexpr uint64_t kSeeds = 8;
constexpr int kSetupReps = 9;

const core::RunMode kModes[kNumLanes] = {
    core::RunMode::Native,
    core::RunMode::TSan,
    core::RunMode::TxRaceProfLoopcut,
};

std::vector<workloads::AppModel>
buildApps(bool calibrate, Tracer &tracer)
{
    workloads::WorkloadParams params;
    params.nWorkers = kWorkers;
    params.scale = kScale;
    params.calibrate = calibrate;
    std::vector<workloads::AppModel> apps;
    for (const std::string &name : workloads::appNames()) {
        auto span = tracer.span(calibrate ? "workloads.build_calibrated"
                                          : "workloads.build");
        apps.push_back(workloads::makeApp(name, params));
    }
    return apps;
}

/** First-cycle outputs every later pass must reproduce:
 *  (app, lane, seed index) -> (total cost, race count). */
using Reference = std::map<std::tuple<size_t, int, uint64_t>,
                           std::pair<uint64_t, size_t>>;

/** Every app under every lane at seed @p seeds[seedIdx]. Returns the
 *  wall ms spent in profile probes (traced passes only). */
double
runPass(const std::vector<workloads::AppModel> &apps,
        const std::vector<uint64_t> &seeds, uint64_t seedIdx,
        Reference &ref, Tally &tally, Tracer &tracer)
{
    auto passSpan = tracer.span("bench.pass");
    double probeMs = 0.0;
    for (size_t a = 0; a < apps.size(); ++a) {
        const workloads::AppModel &app = apps[a];
        for (int l = 0; l < kNumLanes; ++l) {
            core::RunConfig cfg;
            cfg.mode = kModes[l];
            cfg.machine = app.machine;
            cfg.machine.seed = seeds[seedIdx];

            double ms = 0.0;
            core::RunResult result =
                timedRun(app, cfg, Lane(l), tally, tracer, ms);
            tally.runMs.push_back(ms);
            tally.loopSteps += result.error.stepsExecuted;

            auto checkSpan = tracer.span("bench.check");
            Verdict verdict = checkRun(app, result, Lane(l));
            tally.record(verdict, "seed " + std::to_string(seeds[seedIdx]));
            auto key = std::make_tuple(a, l, seedIdx);
            auto [it, first] = ref.try_emplace(
                key, result.totalCost, result.races.count());
            if (first) {
                tally.keep(app, Lane(l), seeds[seedIdx], result);
                if (l == kTxrace) {
                    tally.matched += verdict.matched;
                    tally.expected += verdict.expected;
                }
                tally.falsePositives += verdict.falsePositives;
            } else if (it->second !=
                       std::make_pair(result.totalCost,
                                      result.races.count())) {
                tally.fail(app.name + "/" + laneName(Lane(l)) +
                           ": repeated run differs from the first");
            }
            if (tracer.enabled() && l == kTxrace) {
                Clock::time_point p0 = Clock::now();
                auto span = tracer.span("telemetry.buildRunProfile");
                core::buildRunProfile(app.name, result);
                probeMs += msSince(p0);
            }
        }
    }
    return probeMs;
}

/** Table-1 overhead from the first-cycle costs: geomean over apps of
 *  the seed-mean overhead of @p lane over Native. */
double
overheadGeomean(const std::vector<workloads::AppModel> &apps,
                const Reference &ref, Lane lane)
{
    std::vector<double> perApp;
    for (size_t a = 0; a < apps.size(); ++a) {
        double sum = 0.0;
        for (uint64_t s = 0; s < kSeeds; ++s) {
            double native = double(
                ref.at(std::make_tuple(a, int(kNative), s)).first);
            double tool = double(
                ref.at(std::make_tuple(a, int(lane), s)).first);
            sum += native > 0 ? tool / native : 0.0;
        }
        perApp.push_back(sum / double(kSeeds));
    }
    return geoMean(perApp);
}

} // namespace

Report
runTable1(const Args &args, Tracer &tracer)
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < kSeeds; ++i)
        seeds.push_back(kSeeds * args.seed + i + 1);

    Report report;
    char header[160];
    std::snprintf(header, sizeof header,
                  "table1: 14 apps x {native, tsan, txrace} at seeds "
                  "%llu..%llu, scale %llu, %u simulated workers",
                  (unsigned long long)seeds.front(),
                  (unsigned long long)seeds.back(),
                  (unsigned long long)kScale, kWorkers);
    report.header = header;

    Tracer idle(false);
    std::vector<workloads::AppModel> apps;
    double setupSeconds = 0.0;
    double elidedFrac = 0.0;
    if (tracer.enabled()) {
        auto span = tracer.span("bench.setup");
        apps = buildApps(true, tracer);
        buildApps(false, tracer);
        elidedFrac = probeLayers(apps, tracer, true);
    } else {
        setupSeconds = medianSetupSeconds(
            kSetupReps, [&] { apps = buildApps(true, idle); });
    }

    Reference ref;
    Tally tally;
    Tally untraced;
    double tracedMs = 0.0, untracedMs = 0.0;
    Clock::time_point loop0 = Clock::now();
    for (uint64_t pass = 0;; ++pass) {
        uint64_t seedIdx = pass % kSeeds;
        if (tracer.enabled()) {
            // A traced and an untraced pass over the same seed; their
            // wall ratio is the tracing overhead. The traced pass goes
            // first so the first-cycle outputs land in `tally`.
            Clock::time_point t0 = Clock::now();
            double probeMs =
                runPass(apps, seeds, seedIdx, ref, tally, tracer);
            tracedMs += msSince(t0) - probeMs;
            t0 = Clock::now();
            runPass(apps, seeds, seedIdx, ref, untraced, idle);
            untracedMs += msSince(t0);
        } else {
            runPass(apps, seeds, seedIdx, ref, tally, idle);
        }
        if (pass + 1 >= kSeeds && msSince(loop0) >= args.seconds * 1e3)
            break;
    }
    tally.loopSeconds = msSince(loop0) / 1e3;
    mergeAttempts(tally, untraced);

    double txrace = overheadGeomean(apps, ref, kTxrace);
    double tsan = overheadGeomean(apps, ref, kTsan);
    std::vector<double> paper;
    for (const workloads::AppModel &app : apps)
        paper.push_back(app.paper.txraceOverhead);
    double paperTxrace = geoMean(paper);

    if (tracer.enabled()) {
        LayerExtras extras;
        extras.elidedFrac = elidedFrac;
        extras.traceOverhead = untracedMs > 0 ? tracedMs / untracedMs : 0;
        addCommonPerLayer(report, tally, tracer, extras);
    } else {
        addCommonEndToEnd(report, tally, setupSeconds, txrace, 0.9);
    }
    report.info.push_back({"sim_overhead_tsan", tsan, "x"});
    // Only the paper's TxRace column is held-out data: calibration
    // tunes each app's check cost to the TSan column.
    report.info.push_back({"sim_overhead_txrace.paper", paperTxrace, "x"});
    report.info.push_back({"sim_overhead_err_vs_paper",
                           std::fabs(txrace - paperTxrace) / paperTxrace,
                           "frac"});
    finish(report, tally);
    return report;
}

} // namespace perfbench
