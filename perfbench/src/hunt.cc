/**
 * @file
 * Workload `hunt`: fleet-hunting traffic. A closed loop of
 * campaign::runCampaign calls, each a seed sweep of all 14 apps in
 * txrace-dyn mode without calibration on min(4, nproc) pool threads,
 * followed by writeCampaignJson. Many short parallel runs, so per-run
 * fixed costs (decode, policy set-up, profile fold) and the pool,
 * aggregator and dedup weigh most; there is no profiling pre-run and
 * no TSan lane.
 *
 * The campaign hides its per-job results, so after the loop the
 * benchmark re-executes every job of the first campaign through
 * core::runProgram. This mirror checks each job against ground truth,
 * supplies the simulated step count, and must reproduce the
 * campaign's findings; set-up runs each job's Native baseline.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/strategy.hh"
#include "common.hh"
#include "core/fingerprint.hh"
#include "core/metrics_export.hh"
#include "support/stats.hh"

namespace perfbench {

namespace {

constexpr uint32_t kWorkers = 4;
constexpr uint64_t kScale = 8;
constexpr uint64_t kSeedsPerApp = 16;
constexpr int kSetupReps = 9;

std::vector<workloads::AppModel>
buildApps(Tracer &tracer)
{
    workloads::WorkloadParams params;
    params.nWorkers = kWorkers;
    params.scale = kScale;
    params.calibrate = false;
    std::vector<workloads::AppModel> apps;
    for (const std::string &name : workloads::appNames()) {
        auto span = tracer.span("workloads.build");
        apps.push_back(workloads::makeApp(name, params));
    }
    return apps;
}

struct CampaignRun
{
    campaign::CampaignResult result;
    uint64_t reportHash = 0;
    double wallMs = 0.0;
};

CampaignRun
runOnce(const campaign::CampaignConfig &cfg, Tracer &tracer)
{
    CampaignRun run;
    Clock::time_point t0 = Clock::now();
    {
        auto span = tracer.span("campaign.runCampaign");
        run.result = campaign::runCampaign(cfg);
    }
    std::ostringstream report;
    {
        auto span = tracer.span("campaign.writeCampaignJson");
        campaign::writeCampaignJson(report, cfg, run.result);
    }
    run.wallMs = msSince(t0);
    Digest d;
    d.add(report.str());
    run.reportHash = d.value();
    return run;
}

/** Fold one campaign's attempts and host samples into @p tally. */
void
account(Tally &tally, const CampaignRun &run, uint64_t firstHash)
{
    const campaign::CampaignResult &r = run.result;
    tally.attempted += r.runs;
    for (const campaign::JobSpan &span : r.timing.spans)
        tally.runMs.push_back(double(span.wallMicros) / 1e3);
    if (r.errors)
        tally.fail(std::to_string(r.errors) +
                       " campaign job(s) ended in a RunError",
                   r.errors);
    if (run.reportHash != firstHash)
        tally.fail("campaign report differs from the first campaign's",
                   r.runs);
}

} // namespace

Report
runHunt(const Args &args, Tracer &tracer)
{
    campaign::CampaignConfig cfg;
    cfg.apps = workloads::appNames();
    cfg.seedsPerApp = kSeedsPerApp;
    cfg.masterSeed = args.seed;
    cfg.strategy = "sweep";
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.workers = kWorkers;
    cfg.scale = kScale;
    cfg.calibrate = false;
    cfg.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    Report report;
    char header[200];
    std::snprintf(header, sizeof header,
                  "hunt: sweep campaign, 14 apps x %llu seeds (master "
                  "seed %llu), txrace-dyn, scale %llu, %u pool threads",
                  (unsigned long long)kSeedsPerApp,
                  (unsigned long long)args.seed,
                  (unsigned long long)kScale, cfg.jobs);
    report.header = header;

    // Set-up is everything before the measured loop: the models the
    // checks use (each campaign builds its own, inside the call) and
    // the Native baseline of every job of the sweep.
    std::vector<workloads::AppModel> apps;
    Tally tally;
    std::map<std::pair<std::string, uint64_t>, uint64_t> nativeCost;
    auto setUp = [&](Tracer &tr) {
        apps = buildApps(tr);
        tally = Tally();
        for (const workloads::AppModel &app : apps) {
            for (uint64_t i = 0; i < kSeedsPerApp; ++i) {
                uint64_t seed =
                    campaign::deriveSeed(cfg.masterSeed, app.name, 0, i);
                nativeCost[{app.name, seed}] =
                    nativeBaseline(app, seed, tally, tr);
            }
        }
    };
    Tracer idle(false);
    double setupSeconds = 0.0;
    double elidedFrac = 0.0;
    if (tracer.enabled()) {
        auto span = tracer.span("bench.setup");
        setUp(tracer);
        elidedFrac = probeLayers(apps, tracer, false);
    } else {
        setupSeconds = medianSetupSeconds(kSetupReps, [&] { setUp(idle); });
    }

    Tally untraced;
    CampaignRun first;
    uint64_t campaigns = 0;
    double tracedMs = 0.0, untracedMs = 0.0;
    double busySum = 0.0, stealSum = 0.0;
    Clock::time_point loop0 = Clock::now();
    for (;;) {
        CampaignRun run = runOnce(cfg, tracer);
        if (campaigns == 0)
            first = run;
        account(tally, run, first.reportHash);
        ++campaigns;
        double jobMs = 0.0;
        for (const campaign::JobSpan &span : run.result.timing.spans)
            jobMs += double(span.wallMicros) / 1e3;
        busySum += jobMs / (double(cfg.jobs) * run.result.timing.wallSeconds *
                            1e3);
        stealSum += double(run.result.timing.steals);
        if (tracer.enabled()) {
            tracedMs += run.wallMs;
            CampaignRun plain = runOnce(cfg, idle);
            account(untraced, plain, first.reportHash);
            untracedMs += plain.wallMs;
        }
        if (msSince(loop0) >= args.seconds * 1e3)
            break;
    }
    tally.loopSeconds = msSince(loop0) / 1e3;
    mergeAttempts(tally, untraced);

    // Mirror of the first campaign's jobs (untimed for the gate).
    std::map<std::string, const workloads::AppModel *> byName;
    for (const workloads::AppModel &app : apps)
        byName[app.name] = &app;
    std::set<uint64_t> mirrored;
    std::map<std::string, std::pair<double, uint64_t>> overhead;
    uint64_t jobSteps = 0;
    Tally mirror;
    {
        auto mirrorSpan = tracer.span("bench.mirror");
        for (const campaign::JobSpan &job : first.result.timing.spans) {
            const workloads::AppModel &app = *byName.at(job.app);
            auto native = nativeCost.find({job.app, job.seed});
            if (native == nativeCost.end()) {
                mirror.fail("job " + std::to_string(job.job) +
                            ": seed is not the sweep's");
                continue;
            }
            core::RunConfig run;
            run.mode = cfg.mode;
            run.machine = app.machine;
            run.machine.seed = job.seed;
            run.slowpath = cfg.slowpath;
            double ms = 0.0;
            core::RunResult result =
                timedRun(app, run, kTxrace, tally, tracer, ms);
            jobSteps += result.error.stepsExecuted;

            auto checkSpan = tracer.span("bench.check");
            mirror.record(checkRun(app, result, kTxrace),
                          "job " + std::to_string(job.job));
            tally.keep(app, kTxrace, job.seed, result);
            for (const auto &[sig, race] :
                 core::fingerprintedRaces(app.program, result.races, app.name))
                mirrored.insert(sig.hash);
            if (tracer.enabled()) {
                auto span = tracer.span("telemetry.buildRunProfile");
                core::buildRunProfile(app.name, result);
            }
            auto &[sum, n] = overhead[app.name];
            sum += double(result.totalCost) / double(native->second);
            ++n;
        }
    }
    // A job that fails its check fails in every campaign of the loop.
    tally.failed += mirror.failed * campaigns;
    for (const std::string &why : mirror.failures)
        if (tally.failures.size() < 8)
            tally.failures.push_back(why);

    std::set<uint64_t> found;
    for (const campaign::Finding &f : first.result.findings)
        found.insert(f.sig.hash);
    if (found != mirrored)
        tally.fail("campaign findings differ from the union of its jobs",
                   first.result.runs * campaigns);
    tally.loopSteps = jobSteps * campaigns;
    tally.digest.add(first.reportHash);

    const StatSet &cs = first.result.stats;
    tally.matched = cs.get("campaign.gt_matched");
    tally.expected = cs.get("campaign.gt_expected");
    tally.falsePositives = cs.get("campaign.false_positives");
    if (tally.falsePositives)
        tally.fail("campaign reported races outside the ground truth");

    std::vector<double> perApp;
    for (const auto &[name, acc] : overhead)
        perApp.push_back(acc.first / double(acc.second));
    double txrace = geoMean(perApp);

    if (tracer.enabled()) {
        LayerExtras extras;
        extras.elidedFrac = elidedFrac;
        extras.traceOverhead = untracedMs > 0 ? tracedMs / untracedMs : 0;
        extras.poolBusyFrac = busySum / double(campaigns);
        extras.steals = stealSum / double(campaigns);
        extras.dedupRatio = first.result.dedupRatio;
        addCommonPerLayer(report, tally, tracer, extras);
    } else {
        addCommonEndToEnd(report, tally, setupSeconds, txrace, 0.99);
    }
    report.info.push_back({"campaigns", double(campaigns), "count"});
    report.info.push_back(
        {"unique_findings", double(first.result.findings.size()), "count"});
    finish(report, tally);
    return report;
}

} // namespace perfbench
