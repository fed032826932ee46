/**
 * @file
 * Tests of the campaign's job pool: one job queue and one outcome
 * queue under one lock. It is the only concurrent component in the
 * engine, so these tests also run, repeated, under the CI
 * ThreadSanitizer build. A test that could hang on a broken pool
 * waits with a deadline and fails instead.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "campaign/pool.hh"

using namespace txrace;
using namespace txrace::campaign;

namespace {

constexpr auto kDeadline = std::chrono::seconds(10);

JobSpec
job(uint64_t id)
{
    JobSpec spec;
    spec.id = id;
    spec.run.name = "test";
    return spec;
}

std::vector<JobSpec>
jobs(uint64_t first, uint64_t count)
{
    std::vector<JobSpec> out;
    for (uint64_t i = 0; i < count; ++i)
        out.push_back(job(first + i));
    return out;
}

JobOutcome
echo(const JobSpec &spec, uint32_t)
{
    JobOutcome o;
    o.spec = spec;
    return o;
}

/** Polls @p done until it holds or the deadline passes. */
template <typename Pred>
bool
eventually(Pred done)
{
    auto until = std::chrono::steady_clock::now() + kDeadline;
    while (!done()) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

} // namespace

TEST(Pool, OutcomesFifoFromOneWorker)
{
    JobPool pool(1, echo);
    pool.submit(jobs(0, 3));
    JobOutcome out;
    for (uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(pool.pop(out));
        EXPECT_EQ(out.spec.id, i);
    }
}

TEST(Pool, PopReturnsFalseAfterStopAndDrain)
{
    // Job 9 is running when stop() comes; 10 and 11 are queued behind
    // it on the one worker and are abandoned.
    std::promise<void> started;
    std::promise<void> latch;
    std::shared_future<void> open = latch.get_future().share();
    std::atomic<uint32_t> ran{0};
    JobPool pool(1, [&](const JobSpec &spec, uint32_t worker) {
        ran.fetch_add(1);
        if (spec.id == 9) {
            started.set_value();
            open.wait();
        }
        return echo(spec, worker);
    });
    pool.submit(jobs(9, 3));
    started.get_future().wait();
    pool.stop();
    latch.set_value();

    JobOutcome out;
    EXPECT_TRUE(pool.pop(out));
    EXPECT_EQ(out.spec.id, 9u);
    EXPECT_FALSE(pool.pop(out));
    EXPECT_FALSE(pool.pop(out));
    EXPECT_EQ(ran.load(), 1u);
}

TEST(Pool, WorkerHoldsAtOutcomeBoundUntilPop)
{
    const uint64_t kJobs = JobPool::kOutcomeBound + 6;
    std::atomic<uint64_t> ran{0};
    JobPool pool(1, [&](const JobSpec &spec, uint32_t worker) {
        ran.fetch_add(1);
        return echo(spec, worker);
    });
    pool.submit(jobs(0, kJobs));

    ASSERT_TRUE(eventually([&] {
        return ran.load() == JobPool::kOutcomeBound;
    }));
    // Give the worker a chance to (wrongly) run past the bound.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ran.load(), JobPool::kOutcomeBound);

    JobOutcome out;
    ASSERT_TRUE(pool.pop(out));
    EXPECT_EQ(out.spec.id, 0u);
    ASSERT_TRUE(eventually([&] {
        return ran.load() == JobPool::kOutcomeBound + 1;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ran.load(), JobPool::kOutcomeBound + 1);

    for (uint64_t i = 1; i < kJobs; ++i) {
        ASSERT_TRUE(pool.pop(out));
        EXPECT_EQ(out.spec.id, i);
    }
    EXPECT_EQ(ran.load(), kJobs);
}

TEST(Pool, EveryJobRunsExactlyOnce)
{
    JobPool pool(4, echo);
    pool.submit(jobs(0, 100));

    std::set<uint64_t> seen;
    JobOutcome out;
    for (size_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(pool.pop(out));
        EXPECT_TRUE(seen.insert(out.spec.id).second)
            << "job " << out.spec.id << " ran twice";
    }
    EXPECT_EQ(seen.size(), 100u);
}

TEST(Pool, NoWorkerIdlesWhileJobsQueued)
{
    // Job 0 blocks until every other outcome has been popped. Workers
    // that each owned a fixed share of the batch would leave job 0's
    // share stuck behind it, so this would deadlock; the deadline
    // turns that into a failure.
    std::promise<void> latch;
    std::shared_future<void> open = latch.get_future().share();
    JobPool pool(4, [open](const JobSpec &spec, uint32_t worker) {
        if (spec.id == 0)
            open.wait();
        return echo(spec, worker);
    });
    const uint64_t kJobs = 40;
    pool.submit(jobs(0, kJobs));

    auto others = std::async(std::launch::async, [&] {
        JobOutcome out;
        for (uint64_t i = 1; i < kJobs; ++i) {
            EXPECT_TRUE(pool.pop(out));
            EXPECT_NE(out.spec.id, 0u);
        }
    });
    bool drained = others.wait_for(kDeadline) == std::future_status::ready;
    EXPECT_TRUE(drained) << "a worker idled while jobs were queued";
    latch.set_value();
    others.wait();
    if (!drained)
        return;
    JobOutcome out;
    ASSERT_TRUE(pool.pop(out));
    EXPECT_EQ(out.spec.id, 0u);
}

TEST(Pool, MultipleBatchesReuseWorkers)
{
    JobPool pool(2, echo);
    JobOutcome out;
    for (uint64_t round = 0; round < 3; ++round) {
        pool.submit(jobs(round * 10, 10));
        for (size_t i = 0; i < 10; ++i)
            ASSERT_TRUE(pool.pop(out));
    }
}

TEST(Pool, StopAndJoinAbandonsQueuedJobsButFinishesRunning)
{
    JobPool pool(2, echo);
    std::vector<JobSpec> batch = jobs(0, 100);
    pool.submit(batch);
    // Stop from the consuming thread: no worker ever waits for a pop,
    // so nobody needs to drain while the pool stops.
    pool.stop();
    pool.stop();  // idempotent

    // Whatever was produced is a prefix-free subset of the 100 jobs;
    // each appears at most once and the pool is drainable.
    JobOutcome o;
    std::set<uint64_t> seen;
    size_t produced = 0;
    while (pool.pop(o)) {
        EXPECT_TRUE(seen.insert(o.spec.id).second);
        ++produced;
    }
    EXPECT_LE(produced, batch.size());
}

TEST(Pool, DestroyWithQueuedJobsAndNoConsumerReturns)
{
    // One worker fills the outcome bound and holds with jobs still
    // queued; nobody pops. Destroying the pool must abandon the queue
    // and return.
    std::promise<void> destroyed;
    std::future<void> done = destroyed.get_future();
    std::thread owner([p = std::move(destroyed)]() mutable {
        auto ran = std::make_shared<std::atomic<uint64_t>>(0);
        {
            JobPool pool(1, [ran](const JobSpec &spec, uint32_t worker) {
                ran->fetch_add(1);
                return echo(spec, worker);
            });
            pool.submit(jobs(0, 3 * JobPool::kOutcomeBound));
            eventually([&] {
                return ran->load() >= JobPool::kOutcomeBound;
            });
        }
        p.set_value();
    });
    if (done.wait_for(kDeadline) != std::future_status::ready) {
        // The owner is stuck in ~JobPool and can never be joined; it
        // holds nothing of this frame, so let it go and fail.
        owner.detach();
        FAIL() << "~JobPool did not return with jobs queued and no "
                  "consumer";
    }
    owner.join();
}
