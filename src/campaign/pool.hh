/**
 * @file
 * Work-stealing thread pool for campaign runs.
 *
 * Each worker owns a deque: its own jobs come off the front, and an
 * idle worker steals from the *back* of a victim's deque (classic
 * Arora-Blumofe-Plumtree shape — thieves take the work the owner
 * would reach last). Jobs are seconds of simulation, so per-deque
 * mutexes are plenty; what matters is that no worker idles while
 * another still has a backlog, which a static partition cannot
 * guarantee when per-job cost varies by app and seed.
 *
 * Finished outcomes flow into a shared ResultQueue. The pool imposes
 * NO ordering — determinism is the aggregator's problem (it keys
 * everything by job id).
 */

#ifndef TXRACE_CAMPAIGN_POOL_HH
#define TXRACE_CAMPAIGN_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/job.hh"
#include "campaign/queue.hh"

namespace txrace::campaign {

class WorkStealingPool
{
  public:
    /** Executes one job on a worker thread; @p worker is the index
     *  of the executing worker (per-worker caches, tests). */
    using Runner =
        std::function<JobOutcome(const JobSpec &spec, uint32_t worker)>;

    /** Spawns @p nWorkers threads immediately (>= 1 enforced). */
    WorkStealingPool(uint32_t nWorkers, Runner runner,
                     ResultQueue &out);

    /** Stops workers and joins. Jobs still queued are abandoned —
     *  callers drain every submitted job before destruction. */
    ~WorkStealingPool();

    /**
     * Graceful early stop (service shutdown): workers finish the job
     * they are executing, abandon everything still queued, and are
     * joined before this returns. Abandoned jobs never produce an
     * outcome — the caller must count pops against ids actually
     * folded, not against ids submitted. Call from a thread that is
     * NOT the result-queue consumer (an in-flight worker may be
     * blocked pushing into a full queue; someone must keep
     * draining). Idempotent; the destructor afterwards is a no-op.
     */
    void stopAndJoin();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /**
     * Enqueue a batch, round-robin across the workers' deques, and
     * return immediately. One outcome per job will eventually appear
     * in the ResultQueue; the caller counts pops to find the barrier.
     */
    void submit(const std::vector<JobSpec> &jobs);

    /** Jobs executed by a thief rather than their home worker. */
    uint64_t steals() const { return steals_.load(); }

  private:
    /** One worker's deque; mu guards q. */
    struct Worker
    {
        std::mutex mu;
        std::deque<JobSpec> q;
    };

    void workerLoop(uint32_t self);
    /** Pop from own front, else steal from a victim's back. */
    bool takeJob(uint32_t self, JobSpec &job, bool &stolen);
    bool anyQueued();

    Runner runner_;
    ResultQueue &out_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex wakeMu_;
    std::condition_variable wake_;
    bool stop_ = false;
    /** Early-stop: abandon queued jobs instead of draining them. */
    std::atomic<bool> abandon_{false};

    std::atomic<uint64_t> steals_{0};
};

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_POOL_HH
