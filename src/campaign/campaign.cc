#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "campaign/aggregate.hh"
#include "campaign/execute.hh"
#include "campaign/pool.hh"
#include "campaign/progress.hh"
#include "campaign/queue.hh"
#include "campaign/strategy.hh"
#include "support/log.hh"

namespace txrace::campaign {

CampaignResult
runCampaign(const CampaignConfig &cfg, std::ostream *progress,
            std::ostream *progressJson)
{
    if (cfg.apps.empty())
        fatal("runCampaign: no apps selected");
    if (cfg.jobs == 0)
        fatal("runCampaign: need at least one job slot");

    // Before any thread spawns: bad app names fail fast.
    const GroundTruth groundTruth = groundTruthFor(cfg.apps);

    std::vector<WorkerCache> caches(cfg.jobs);
    ResultQueue queue(cfg.queueCapacity);
    bool calibrate = cfg.calibrate;
    core::SlowPathKind slowpath = cfg.slowpath;
    // Live per-worker phase gauges for the heartbeat stream.
    std::vector<std::atomic<uint8_t>> workerBusy(cfg.jobs);
    auto wall0 = std::chrono::steady_clock::now();
    WorkStealingPool pool(
        cfg.jobs,
        [&caches, &workerBusy, calibrate, slowpath,
         wall0](const JobSpec &spec, uint32_t worker) {
            workerBusy[worker].store(1, std::memory_order_relaxed);
            auto t0 = std::chrono::steady_clock::now();
            JobOutcome outcome =
                executeJob(spec, caches[worker], calibrate, slowpath);
            outcome.worker = worker;
            outcome.startMicros = uint64_t(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    t0 - wall0)
                    .count());
            workerBusy[worker].store(0, std::memory_order_relaxed);
            return outcome;
        },
        queue);

    std::unique_ptr<Strategy> strategy = makeStrategy(cfg.strategy);
    Aggregator aggregator;
    std::vector<JobOutcome> history;
    uint64_t nextId = 0;
    uint64_t rounds = 0;
    uint64_t jobsTotal = 0;
    std::vector<uint64_t> workerDone(cfg.jobs, 0);

    for (;;) {
        std::vector<JobSpec> jobs =
            strategy->nextRound(cfg, history, nextId);
        if (jobs.empty())
            break;
        if (progress)
            *progress << "round " << rounds << ": " << jobs.size()
                      << " job(s) [" << strategy->name() << "]\n";
        jobsTotal += jobs.size();
        pool.submit(jobs);

        // Round barrier: exactly one outcome per submitted job.
        for (size_t i = 0; i < jobs.size(); ++i) {
            JobOutcome outcome;
            if (!queue.pop(outcome))
                fatal("runCampaign: result queue closed early");
            aggregator.add(outcome);
            if (outcome.worker < workerDone.size())
                ++workerDone[outcome.worker];
            // Heartbeat on a job-count cadence — no wall clock, so
            // the number of records depends only on the config.
            if (progressJson && cfg.progressEvery > 0 &&
                aggregator.runs() % cfg.progressEvery == 0)
                writeProgressRecord(
                    *progressJson,
                    progressRecord("progress", rounds, jobsTotal,
                                   aggregator, workerDone,
                                   workerBusy));
            history.push_back(std::move(outcome));
        }
        // Strategies see id order, never completion order.
        std::sort(history.begin(), history.end(),
                  [](const JobOutcome &x, const JobOutcome &y) {
                      return x.spec.id < y.spec.id;
                  });
        ++rounds;
    }
    auto wall1 = std::chrono::steady_clock::now();
    if (progressJson)
        writeProgressRecord(*progressJson,
                            progressRecord("end", rounds, jobsTotal,
                                           aggregator, workerDone,
                                           workerBusy));

    CampaignResult result = aggregator.finalize(cfg, groundTruth);
    result.timing.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    result.timing.runsPerSec =
        result.timing.wallSeconds > 0.0
            ? double(result.runs) / result.timing.wallSeconds
            : 0.0;
    result.timing.jobs = cfg.jobs;
    result.timing.steals = pool.steals();
    // History is already sorted by job id; the spans inherit that
    // order so the trace is stable modulo the timing values.
    result.timing.spans.reserve(history.size());
    for (const JobOutcome &o : history) {
        JobSpan span;
        span.job = o.spec.id;
        span.round = o.spec.round;
        span.app = o.spec.app;
        span.variant = o.spec.variant;
        span.seed = o.spec.seed;
        span.worker = o.worker;
        span.startMicros = o.startMicros;
        span.wallMicros = o.wallMicros;
        span.rawReports = o.races.size();
        result.timing.spans.push_back(std::move(span));
    }
    return result;
}

} // namespace txrace::campaign
