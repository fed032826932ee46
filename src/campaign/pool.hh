/**
 * @file
 * The campaign's thread pool: one FIFO of jobs and one FIFO of
 * outcomes under one mutex.
 *
 * A job is one simulator run, milliseconds of host time (see
 * docs/ARCHITECTURE.md for hunt's spread), so a shared queue under one
 * lock balances the load: an idle worker takes the next queued job,
 * whatever its cost. Deliberately boring: the engine must be clean
 * under real ThreadSanitizer (CI builds it with `-fsanitize=thread`),
 * which rules out clever unverified lock-free code.
 *
 * Backpressure: a worker takes a job only while fewer than
 * kOutcomeBound outcomes are queued or being computed, so a fast
 * fleet cannot run unboundedly ahead of a slow consumer. A finished
 * job never waits: its outcome always fits.
 *
 * The pool imposes NO ordering across workers; determinism is the
 * aggregator's problem (it keys everything by job id).
 */

#ifndef TXRACE_CAMPAIGN_POOL_HH
#define TXRACE_CAMPAIGN_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/job.hh"

namespace txrace::campaign {

class JobPool
{
  public:
    /** Executes one job on a worker thread; @p worker is the index
     *  of the executing worker (per-worker caches, tests). */
    using Runner =
        std::function<JobOutcome(const JobSpec &spec, uint32_t worker)>;

    /** Undelivered outcomes (queued or being computed) at most. */
    static constexpr size_t kOutcomeBound = 64;

    /** Spawns @p nWorkers threads immediately (>= 1 enforced). */
    JobPool(uint32_t nWorkers, Runner runner);

    /** stop(), then join. Never waits for a consumer. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /**
     * Queue a batch and return immediately. One outcome per job will
     * eventually be poppable; the caller counts pops to find the
     * barrier.
     */
    void submit(const std::vector<JobSpec> &jobs);

    /**
     * Pop the oldest outcome into @p out. Blocks while none is ready;
     * returns false once the pool is stopped and drained. One
     * consumer thread pops.
     */
    bool pop(JobOutcome &out);

    /**
     * Graceful early stop (service shutdown): queued jobs are
     * abandoned and never produce an outcome; a running job finishes
     * and its outcome stays poppable. The caller must count pops
     * against ids actually folded, not against ids submitted.
     * Idempotent; may be called from the consuming thread.
     */
    void stop();

  private:
    void workerLoop(uint32_t self);

    Runner runner_;
    std::mutex mu_;
    /** Workers: a job is queued and may start, or the pool stopped. */
    std::condition_variable workReady_;
    /** Consumer: an outcome is queued, or the pool stopped and drained. */
    std::condition_variable outcomeReady_;
    std::deque<JobSpec> jobs_;
    std::deque<JobOutcome> outcomes_;
    /** Jobs a worker has taken and not yet delivered to outcomes_. */
    size_t running_ = 0;
    bool stopped_ = false;
    /** Last: workers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_POOL_HH
