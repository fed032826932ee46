/**
 * @file
 * The round runner under both campaign drivers.
 *
 * The one-shot campaign and the hunting service (src/service) differ
 * in where rounds come from and in what happens between folds
 * (checkpoints, stop requests), not in how a round runs. The runner
 * owns the per-worker WorkerCaches, busy gauges and done counts, and
 * the JobPool whose workers call executeJob and stamp each outcome's
 * worker and start time. The runner starts no thread of its own. The
 * caller owns the fold: outcomes reach it one at a time, on the
 * caller's thread, in completion order; determinism stays the
 * aggregator's job.
 */

#ifndef TXRACE_CAMPAIGN_RUNNER_HH
#define TXRACE_CAMPAIGN_RUNNER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/execute.hh"
#include "campaign/pool.hh"
#include "campaign/progress.hh"

namespace txrace::campaign {

class Aggregator;

class RoundRunner
{
  public:
    /** Consumes one outcome on the caller's thread; false asks the
     *  runner to stop popping (see runRound). */
    using Fold = std::function<bool(JobOutcome)>;

    /** Spawns cfg.jobs pool threads; the wall clock starts here.
     *  Jobs run with cfg's slow-path knob. */
    explicit RoundRunner(const CampaignConfig &cfg);

    RoundRunner(const RoundRunner &) = delete;
    RoundRunner &operator=(const RoundRunner &) = delete;

    /**
     * Submit @p jobs and pop exactly one outcome per job into
     * @p fold: the round barrier. True once every job is folded;
     * false as soon as @p fold returns false, leaving the jobs still
     * queued or running to stopAndDrain().
     */
    bool runRound(const std::vector<JobSpec> &jobs, const Fold &fold);

    /**
     * Graceful stop, on the folding thread: workers finish the job
     * they are running, queued jobs are abandoned, and the outcomes
     * still undelivered are folded into @p fold (its return value is
     * ignored). Call once; the runner takes no further rounds.
     */
    void stopAndDrain(const Fold &fold);

    /** A heartbeat: the core fields from @p agg (call on the folding
     *  thread) plus one lane per pool worker. */
    ProgressRecord progress(std::string event, uint64_t round,
                            uint64_t jobsTotal,
                            const Aggregator &agg) const;

    /** Wall time since construction, runs/s, and one span per
     *  outcome this runner popped, in job-id order. */
    CampaignTiming timing() const;
    double elapsedSeconds() const;

  private:
    /** Book a popped outcome: its worker's done count and its span. */
    void popped(const JobOutcome &outcome);

    std::vector<WorkerCache> caches_;
    std::vector<std::atomic<uint8_t>> busy_;
    std::vector<uint64_t> workerDone_;
    std::vector<JobSpan> spans_;
    std::chrono::steady_clock::time_point wall0_;
    /** Last: its workers use every member above. */
    JobPool pool_;
};

/** Sort @p history by job id: strategies and checkpoints see id
 *  order, never completion order. */
void sortById(std::vector<JobOutcome> &history);

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_RUNNER_HH
