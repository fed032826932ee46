#include "campaign/pool.hh"

#include "support/log.hh"

namespace txrace::campaign {

JobPool::JobPool(uint32_t nWorkers, Runner runner)
    : runner_(std::move(runner))
{
    if (nWorkers == 0)
        fatal("JobPool: need at least one worker");
    threads_.reserve(nWorkers);
    for (uint32_t i = 0; i < nWorkers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

JobPool::~JobPool()
{
    stop();
    for (std::thread &t : threads_)
        t.join();
}

void
JobPool::submit(const std::vector<JobSpec> &jobs)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.insert(jobs_.end(), jobs.begin(), jobs.end());
    }
    workReady_.notify_all();
}

bool
JobPool::pop(JobOutcome &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    outcomeReady_.wait(lock, [&] {
        return !outcomes_.empty() || (stopped_ && running_ == 0);
    });
    if (outcomes_.empty())
        return false;
    out = std::move(outcomes_.front());
    outcomes_.pop_front();
    lock.unlock();
    // One slot freed: one held worker may start its next job.
    workReady_.notify_one();
    return true;
}

void
JobPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopped_ = true;
        jobs_.clear();
    }
    workReady_.notify_all();
    outcomeReady_.notify_all();
}

void
JobPool::workerLoop(uint32_t self)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workReady_.wait(lock, [&] {
            return stopped_ ||
                   (!jobs_.empty() &&
                    outcomes_.size() + running_ < kOutcomeBound);
        });
        if (stopped_)
            return;
        JobSpec job = std::move(jobs_.front());
        jobs_.pop_front();
        ++running_;
        lock.unlock();
        JobOutcome outcome = runner_(job, self);
        lock.lock();
        outcomes_.push_back(std::move(outcome));
        --running_;
        outcomeReady_.notify_one();
    }
}

} // namespace txrace::campaign
