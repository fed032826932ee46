#include "campaign/campaign.hh"

#include <memory>

#include "campaign/aggregate.hh"
#include "campaign/runner.hh"
#include "campaign/strategy.hh"
#include "support/log.hh"

namespace txrace::campaign {

core::RunIdentity
baseIdentity(const CampaignConfig &cfg)
{
    core::RunIdentity run;
    run.mode = cfg.mode;
    run.workers = cfg.workers;
    run.scale = cfg.scale;
    run.sampleRate = 1.0;
    run.calibrated = cfg.calibrate;
    return run;
}

CampaignResult
runCampaign(const CampaignConfig &cfg, std::ostream *progress,
            std::ostream *progressJson)
{
    if (cfg.apps.empty())
        fatal("runCampaign: no apps selected");

    // Before any thread spawns: bad app names fail fast.
    const GroundTruth groundTruth = groundTruthFor(cfg.apps);

    RoundRunner runner(cfg);
    std::unique_ptr<Strategy> strategy = makeStrategy(cfg.strategy);
    Aggregator aggregator;
    std::vector<JobOutcome> history;
    uint64_t nextId = 0;
    uint64_t rounds = 0;
    uint64_t jobsTotal = 0;

    for (;;) {
        std::vector<JobSpec> jobs =
            strategy->nextRound(cfg, history, nextId);
        if (jobs.empty())
            break;
        if (progress)
            *progress << "round " << rounds << ": " << jobs.size()
                      << " job(s) [" << strategy->name() << "]\n";
        jobsTotal += jobs.size();
        runner.runRound(jobs, [&](JobOutcome outcome) {
            aggregator.add(outcome);
            // Heartbeat on a job-count cadence — no wall clock, so
            // the number of records depends only on the config.
            if (progressJson && cfg.progressEvery > 0 &&
                aggregator.runs() % cfg.progressEvery == 0)
                writeProgressRecord(*progressJson,
                                    runner.progress("progress", rounds,
                                                    jobsTotal,
                                                    aggregator));
            history.push_back(std::move(outcome));
            return true;
        });
        sortById(history);
        ++rounds;
    }
    CampaignTiming timing = runner.timing();
    if (progressJson)
        writeProgressRecord(*progressJson,
                            runner.progress("end", rounds, jobsTotal,
                                            aggregator));

    CampaignResult result = aggregator.finalize(cfg, groundTruth);
    result.timing = std::move(timing);
    return result;
}

} // namespace txrace::campaign
