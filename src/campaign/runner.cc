#include "campaign/runner.hh"

#include <algorithm>
#include <thread>

#include "campaign/aggregate.hh"
#include "support/log.hh"

namespace txrace::campaign {

RoundRunner::RoundRunner(const CampaignConfig &cfg)
    : caches_(cfg.jobs), busy_(cfg.jobs), workerDone_(cfg.jobs, 0),
      queue_(cfg.queueCapacity), wall0_(std::chrono::steady_clock::now()),
      pool_(
          cfg.jobs,
          [this, calibrate = cfg.calibrate, slowpath = cfg.slowpath](
              const JobSpec &spec, uint32_t worker) {
              busy_[worker].store(1, std::memory_order_relaxed);
              auto t0 = std::chrono::steady_clock::now();
              JobOutcome outcome =
                  executeJob(spec, caches_[worker], calibrate, slowpath);
              outcome.worker = worker;
              outcome.startMicros = uint64_t(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      t0 - wall0_)
                      .count());
              busy_[worker].store(0, std::memory_order_relaxed);
              return outcome;
          },
          queue_)
{
}

void
RoundRunner::popped(const JobOutcome &o)
{
    if (o.worker < workerDone_.size())
        ++workerDone_[o.worker];
    spans_.push_back({o.spec.id, o.spec.round, o.spec.app, o.spec.variant,
                      o.spec.seed, o.worker, o.startMicros, o.wallMicros,
                      o.races.size()});
}

bool
RoundRunner::runRound(const std::vector<JobSpec> &jobs, const Fold &fold)
{
    if (!jobs.empty())
        pool_.submit(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
        JobOutcome outcome;
        if (!queue_.pop(outcome))
            fatal("round runner: result queue closed early");
        popped(outcome);
        if (!fold(std::move(outcome)))
            return false;
    }
    return true;
}

void
RoundRunner::stopAndDrain(const Fold &fold)
{
    // A running worker may be blocked pushing into a full queue; join
    // from the side while this thread keeps draining.
    std::thread joiner([this] {
        pool_.stopAndJoin();
        queue_.close();
    });
    JobOutcome outcome;
    while (queue_.pop(outcome)) {
        popped(outcome);
        fold(std::move(outcome));
    }
    joiner.join();
}

ProgressRecord
RoundRunner::progress(std::string event, uint64_t round,
                      uint64_t jobsTotal, const Aggregator &agg) const
{
    ProgressRecord rec;
    rec.event = std::move(event);
    rec.round = round;
    rec.jobsTotal = jobsTotal;
    rec.jobsDone = agg.runs();
    rec.findings = agg.findingCount();
    rec.rawReports = agg.rawReports();
    rec.errors = agg.errorCount();
    rec.variants = agg.variantCounters();
    for (size_t i = 0; i < workerDone_.size(); ++i)
        rec.workers.emplace_back(
            workerDone_[i],
            busy_[i].load(std::memory_order_relaxed) != 0);
    return rec;
}

double
RoundRunner::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - wall0_)
        .count();
}

CampaignTiming
RoundRunner::timing() const
{
    CampaignTiming t;
    t.wallSeconds = elapsedSeconds();
    t.runsPerSec =
        t.wallSeconds > 0.0 ? double(spans_.size()) / t.wallSeconds : 0.0;
    t.jobs = uint32_t(caches_.size());
    t.steals = pool_.steals();
    t.spans = spans_;
    std::sort(t.spans.begin(), t.spans.end(),
              [](const JobSpan &x, const JobSpan &y) {
                  return x.job < y.job;
              });
    return t;
}

void
sortById(std::vector<JobOutcome> &history)
{
    std::sort(history.begin(), history.end(),
              [](const JobOutcome &x, const JobOutcome &y) {
                  return x.spec.id < y.spec.id;
              });
}

} // namespace txrace::campaign
