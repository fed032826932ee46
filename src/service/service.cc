#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/execute.hh"
#include "campaign/pool.hh"
#include "campaign/progress.hh"
#include "campaign/queue.hh"
#include "campaign/strategy.hh"
#include "detector/report.hh"
#include "service/checkpoint.hh"
#include "service/ingest.hh"
#include "service/store.hh"
#include "support/log.hh"
#include "telemetry/json.hh"
#include "telemetry/servicestats.hh"

namespace txrace::service {

namespace {

std::string
hex64(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  (unsigned long long)v);
    return buf;
}

/** The whole service loop as one object so the batch runner, the
 *  checkpointer, and the shutdown path share state naturally. */
class ServiceRunner
{
  public:
    explicit ServiceRunner(const ServiceOptions &opt) : opt_(opt) {}

    ServiceResult run();

  private:
    bool stopRequested() const
    {
        return opt_.stopFlag &&
               opt_.stopFlag->load(std::memory_order_relaxed);
    }

    void restoreOrInit();
    void startPool();
    /** Submit unseen jobs of @p batch and fold their outcomes.
     *  Returns false when a stop was requested (shutdown already
     *  checkpointed). */
    bool runBatch(const std::vector<campaign::JobSpec> &batch);
    void foldOutcome(campaign::JobOutcome outcome);
    void checkpointNow();
    void emitHeartbeat(const std::string &event);
    void emitDelta(const campaign::JobOutcome &outcome,
                   const campaign::FoundRace &race);
    void shutdownPoolAndDrain();
    bool strategyLoop();
    bool streamLoop();
    void writeFinal(ServiceResult &res);

    ServiceOptions opt_;
    campaign::CampaignConfig cfg_;
    campaign::GroundTruth groundTruth_;

    /** Folded only on the runner thread (runBatch and the shutdown
     *  drain); pool workers never touch it. */
    campaign::Aggregator agg_;
    std::unique_ptr<campaign::Strategy> strategy_;
    std::vector<campaign::JobOutcome> history_;
    std::vector<OutcomeSummary> summaries_;
    std::map<std::string, uint64_t> spoolFirstId_;
    /** Spool files fully folded by THIS process: skipped silently on
     *  re-scan so follow-mode polling doesn't re-count them as
     *  redelivered duplicates every tick. */
    std::set<std::string> spoolDrained_;
    std::vector<campaign::JobSpec> plan_;
    uint64_t nextId_ = 0;
    uint64_t roundsDone_ = 0;
    uint64_t jobsTotal_ = 0;
    uint64_t jobsFolded_ = 0;
    uint64_t duplicates_ = 0;

    std::unique_ptr<campaign::ResultQueue> queue_;
    std::unique_ptr<campaign::WorkStealingPool> pool_;
    std::vector<campaign::WorkerCache> caches_;
    std::vector<std::atomic<uint8_t>> busy_;
    std::vector<uint64_t> workerDone_;

    telemetry::ServiceStats stats_;
    std::chrono::steady_clock::time_point wall0_;
    bool poolStopped_ = false;
};

void
ServiceRunner::restoreOrInit()
{
    cfg_ = opt_.cfg;
    if (opt_.resume) {
        const std::string path = opt_.stateDir + "/checkpoint.json";
        std::string text, error;
        if (!readFile(path, text, error))
            fatal("--resume: %s", error.c_str());
        Checkpoint ck;
        if (!Checkpoint::parse(text, ck, error))
            fatal("--resume: %s: %s", path.c_str(), error.c_str());
        // Identity comes from the checkpoint; execution knobs (jobs,
        // cadence) stay with the CLI.
        cfg_.masterSeed = ck.campaign.masterSeed;
        cfg_.strategy = ck.campaign.strategy;
        cfg_.mode = ck.campaign.mode;
        cfg_.slowpath = ck.campaign.slowpath;
        cfg_.apps = ck.campaign.apps;
        cfg_.seedsPerApp = ck.campaign.seedsPerApp;
        cfg_.workers = ck.campaign.workers;
        cfg_.scale = ck.campaign.scale;
        cfg_.calibrate = ck.campaign.calibrate;

        nextId_ = ck.nextId;
        roundsDone_ = ck.roundsDone;
        jobsTotal_ = ck.jobsTotal;
        plan_ = std::move(ck.plan);
        summaries_ = std::move(ck.history);
        spoolFirstId_ = std::move(ck.spoolFirstId);
        agg_ = std::move(ck.aggregate);

        strategy_ = campaign::makeStrategy(cfg_.strategy);
        strategy_->restoreState(ck.strategyState);
        for (const OutcomeSummary &s : summaries_)
            history_.push_back(s.toOutcome(cfg_));
        std::sort(history_.begin(), history_.end(),
                  [](const campaign::JobOutcome &x,
                     const campaign::JobOutcome &y) {
                      return x.spec.id < y.spec.id;
                  });
        ++stats_.resumes;
        if (opt_.chatter)
            *opt_.chatter << "resumed: " << summaries_.size()
                          << " outcome(s), next id " << nextId_
                          << ", " << plan_.size()
                          << " job(s) in the pending round\n";
    } else {
        strategy_ = campaign::makeStrategy(cfg_.strategy);
    }

    if (cfg_.apps.empty())
        fatal("--serve: no apps selected");
    groundTruth_ = campaign::groundTruthFor(cfg_.apps);
}

void
ServiceRunner::startPool()
{
    caches_ = std::vector<campaign::WorkerCache>(cfg_.jobs);
    busy_ = std::vector<std::atomic<uint8_t>>(cfg_.jobs);
    workerDone_.assign(cfg_.jobs, 0);
    queue_ = std::make_unique<campaign::ResultQueue>(
        cfg_.queueCapacity);
    const bool calibrate = cfg_.calibrate;
    const core::SlowPathKind slowpath = cfg_.slowpath;
    pool_ = std::make_unique<campaign::WorkStealingPool>(
        cfg_.jobs,
        [this, calibrate, slowpath](const campaign::JobSpec &spec,
                                    uint32_t worker) {
            busy_[worker].store(1, std::memory_order_relaxed);
            campaign::JobOutcome outcome = campaign::executeJob(
                spec, caches_[worker], calibrate, slowpath);
            outcome.worker = worker;
            busy_[worker].store(0, std::memory_order_relaxed);
            return outcome;
        },
        *queue_);
}

void
ServiceRunner::emitHeartbeat(const std::string &event)
{
    if (!opt_.progressJson)
        return;
    campaign::ProgressRecord rec = campaign::progressRecord(
        event, roundsDone_, jobsTotal_, agg_, workerDone_, busy_);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0_)
                      .count();
    uint64_t rate =
        secs > 0.0 ? uint64_t(double(jobsFolded_) / secs) : 0;
    rec.service = stats_.gauges(rate);
    campaign::writeProgressRecord(*opt_.progressJson, rec);
}

void
ServiceRunner::emitDelta(const campaign::JobOutcome &outcome,
                         const campaign::FoundRace &race)
{
    ++stats_.deltasEmitted;
    if (!opt_.progressJson)
        return;
    telemetry::JsonWriter w(*opt_.progressJson, /*pretty=*/false);
    w.beginObject();
    w.field("schema", "txrace-progress-v1");
    w.field("event", "finding");
    w.field("job", outcome.spec.id);
    w.field("app", outcome.spec.app);
    w.field("fingerprint", hex64(race.sig.hash));
    w.field("kind", detector::raceKindName(race.kind));
    w.field("a", race.sig.a);
    w.field("b", race.sig.b);
    w.endObject();
    *opt_.progressJson << "\n" << std::flush;
}

void
ServiceRunner::checkpointNow()
{
    auto t0 = std::chrono::steady_clock::now();
    Checkpoint ck;
    ck.campaign = cfg_;
    ck.nextId = nextId_;
    ck.roundsDone = roundsDone_;
    ck.jobsTotal = jobsTotal_;
    ck.strategyName = strategy_ ? strategy_->name() : "";
    if (strategy_)
        strategy_->saveState(ck.strategyState);
    ck.plan = plan_;
    ck.history = summaries_;
    ck.spoolFirstId = spoolFirstId_;
    ck.aggregate = agg_;

    std::ostringstream ss;
    ck.write(ss);
    std::string error;
    if (!writeFileAtomic(opt_.stateDir + "/checkpoint.json", ss.str(),
                         error))
        fatal("checkpoint: %s", error.c_str());
    auto t1 = std::chrono::steady_clock::now();
    stats_.noteCheckpoint(uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    emitHeartbeat("checkpoint");
}

void
ServiceRunner::foldOutcome(campaign::JobOutcome outcome)
{
    std::vector<const campaign::FoundRace *> fresh;
    if (!agg_.add(outcome, &fresh)) {
        ++duplicates_;
        ++stats_.duplicatesSkipped;
        return;
    }
    ++jobsFolded_;
    ++stats_.jobsIngested;
    if (outcome.worker < workerDone_.size())
        ++workerDone_[outcome.worker];
    for (const campaign::FoundRace *race : fresh)
        emitDelta(outcome, *race);
    summaries_.push_back(OutcomeSummary::of(outcome));
    if (opt_.progressJson && cfg_.progressEvery > 0 &&
        jobsFolded_ % cfg_.progressEvery == 0)
        emitHeartbeat("progress");
    history_.push_back(std::move(outcome));
}

void
ServiceRunner::shutdownPoolAndDrain()
{
    // An in-flight worker may be blocked pushing into a full queue;
    // join from the side while this thread keeps draining.
    std::thread joiner([this] {
        pool_->stopAndJoin();
        queue_->close();
    });
    campaign::JobOutcome outcome;
    while (queue_->pop(outcome))
        foldOutcome(std::move(outcome));
    joiner.join();
    poolStopped_ = true;
}

bool
ServiceRunner::runBatch(const std::vector<campaign::JobSpec> &batch)
{
    std::vector<campaign::JobSpec> todo;
    for (const campaign::JobSpec &spec : batch) {
        if (agg_.seen(spec.id)) {
            ++duplicates_;
            ++stats_.duplicatesSkipped;
            continue;
        }
        todo.push_back(spec);
    }
    if (!todo.empty())
        pool_->submit(todo);

    uint64_t sinceCkpt = 0;
    for (size_t i = 0; i < todo.size(); ++i) {
        campaign::JobOutcome outcome;
        if (!queue_->pop(outcome))
            fatal("service: result queue closed early");
        foldOutcome(std::move(outcome));
        ++sinceCkpt;
        if (opt_.checkpointEvery > 0 &&
            sinceCkpt >= opt_.checkpointEvery) {
            checkpointNow();
            sinceCkpt = 0;
        }
        if (stopRequested()) {
            if (opt_.chatter)
                *opt_.chatter
                    << "stop requested: draining in-flight jobs\n";
            shutdownPoolAndDrain();
            checkpointNow();
            emitHeartbeat("shutdown");
            return false;
        }
    }
    std::sort(history_.begin(), history_.end(),
              [](const campaign::JobOutcome &x,
                 const campaign::JobOutcome &y) {
                  return x.spec.id < y.spec.id;
              });
    return true;
}

bool
ServiceRunner::strategyLoop()
{
    // A pending plan from the checkpoint runs first; afterwards the
    // restored strategy state machine continues from its next round.
    if (plan_.empty())
        plan_ = strategy_->nextRound(cfg_, history_, nextId_);
    while (!plan_.empty()) {
        jobsTotal_ = std::max(
            jobsTotal_,
            plan_.empty() ? nextId_ : plan_.back().id + 1);
        if (opt_.chatter)
            *opt_.chatter << "round " << roundsDone_ << ": "
                          << plan_.size() << " job(s) ["
                          << strategy_->name() << "]\n";
        // Persist the plan before running it: a kill mid-round
        // resumes THIS round, not a rederived one.
        checkpointNow();
        if (!runBatch(plan_))
            return false;
        ++roundsDone_;
        plan_.clear();
        checkpointNow();
        if (stopRequested()) {
            emitHeartbeat("shutdown");
            return false;
        }
        plan_ = strategy_->nextRound(cfg_, history_, nextId_);
    }
    return true;
}

bool
ServiceRunner::streamLoop()
{
    strategy_.reset(); // jobs come from the stream, not a strategy
    for (;;) {
        bool ingested = false;
        if (!opt_.spoolDir.empty()) {
            for (const std::string &name :
                 listSpoolFiles(opt_.spoolDir)) {
                if (spoolDrained_.count(name))
                    continue;
                std::string text, error;
                if (!readFile(opt_.spoolDir + "/" + name, text,
                              error))
                    fatal("spool: %s", error.c_str());
                std::vector<campaign::JobSpec> specs;
                if (!parseJobBatch(text, cfg_, specs, error))
                    fatal("spool: %s: %s", name.c_str(),
                          error.c_str());
                // Stable id assignment across resumes: the first id
                // ever given to this file is recorded and reused.
                auto it = spoolFirstId_.find(name);
                uint64_t base;
                if (it != spoolFirstId_.end()) {
                    base = it->second;
                } else {
                    base = nextId_;
                    nextId_ += specs.size();
                    spoolFirstId_[name] = base;
                    ++stats_.batches;
                }
                bool anyNew = false;
                for (size_t i = 0; i < specs.size(); ++i) {
                    specs[i].id = base + i;
                    specs[i].round = uint32_t(roundsDone_);
                    anyNew |= !agg_.seen(specs[i].id);
                }
                if (!anyNew) {
                    // Redelivered batch, fully folded already (e.g.
                    // before the checkpoint we resumed from): still
                    // duplicates from the ingest point of view.
                    duplicates_ += specs.size();
                    stats_.duplicatesSkipped += specs.size();
                    spoolDrained_.insert(name);
                    continue;
                }
                ingested = true;
                jobsTotal_ = std::max(jobsTotal_, nextId_);
                if (opt_.chatter)
                    *opt_.chatter
                        << "spool batch " << name << ": "
                        << specs.size() << " job(s)\n";
                plan_ = specs;
                checkpointNow();
                bool ok = runBatch(plan_);
                plan_.clear();
                if (!ok)
                    return false;
                spoolDrained_.insert(name);
                ++roundsDone_;
                checkpointNow();
            }
        }
        if (opt_.jobStream) {
            std::string line, batchText;
            auto flush = [&]() -> bool {
                if (batchText.empty())
                    return true;
                std::vector<campaign::JobSpec> specs;
                std::string error;
                if (!parseJobBatch(batchText, cfg_, specs, error))
                    fatal("stdin batch: %s", error.c_str());
                batchText.clear();
                if (specs.empty())
                    return true;
                for (campaign::JobSpec &spec : specs) {
                    spec.id = nextId_++;
                    spec.round = uint32_t(roundsDone_);
                }
                ++stats_.batches;
                ingested = true;
                jobsTotal_ = std::max(jobsTotal_, nextId_);
                plan_ = specs;
                checkpointNow();
                bool ok = runBatch(plan_);
                plan_.clear();
                if (!ok)
                    return false;
                ++roundsDone_;
                checkpointNow();
                return true;
            };
            while (std::getline(*opt_.jobStream, line)) {
                if (line.find_first_not_of(" \t\r") ==
                    std::string::npos) {
                    if (!flush())
                        return false;
                } else {
                    batchText += line;
                    batchText += "\n";
                }
                if (stopRequested())
                    break;
            }
            if (!flush())
                return false;
            opt_.jobStream = nullptr; // EOF: stream is done
        }
        if (stopRequested()) {
            checkpointNow();
            emitHeartbeat("shutdown");
            return false;
        }
        if (!ingested && !opt_.jobStream) {
            if (!opt_.follow)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }
}

void
ServiceRunner::writeFinal(ServiceResult &res)
{
    res.report = agg_.finalize(cfg_, groundTruth_);
    res.report.timing.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0_)
            .count();
    res.report.timing.jobs = cfg_.jobs;

    FindingsStore store;
    store.campaign = cfg_;
    store.aggregate = agg_;
    std::ostringstream fs;
    store.write(fs);
    std::string error;
    if (!writeFileAtomic(opt_.stateDir + "/findings.json", fs.str(),
                         error))
        fatal("findings store: %s", error.c_str());

    std::ostringstream cs;
    campaign::writeCampaignJson(cs, cfg_, res.report);
    if (!writeFileAtomic(opt_.stateDir + "/campaign.json", cs.str(),
                         error))
        fatal("campaign report: %s", error.c_str());

    // Final checkpoint: plan empty, everything folded — a further
    // --resume re-emits the identical outputs and exits.
    checkpointNow();
    emitHeartbeat("end");
}

ServiceResult
ServiceRunner::run()
{
    if (opt_.stateDir.empty())
        fatal("--serve needs --state-dir");
    if (opt_.cfg.jobs == 0)
        fatal("--serve: need at least one job slot");
    std::error_code ec;
    std::filesystem::create_directories(opt_.stateDir, ec);
    if (ec)
        fatal("cannot create state dir %s", opt_.stateDir.c_str());

    wall0_ = std::chrono::steady_clock::now();
    restoreOrInit();
    startPool();
    emitHeartbeat(opt_.resume ? "resume" : "start");

    const bool stream =
        !opt_.spoolDir.empty() || opt_.jobStream != nullptr;
    bool completed = stream ? streamLoop() : strategyLoop();

    ServiceResult res;
    res.jobsFolded = jobsFolded_;
    res.duplicatesSkipped = duplicates_;
    res.completed = completed;
    if (completed)
        writeFinal(res);
    res.checkpoints = stats_.checkpoints;

    if (!poolStopped_)
        shutdownPoolAndDrain();
    return res;
}

} // namespace

ServiceResult
runService(const ServiceOptions &opt)
{
    ServiceRunner runner(opt);
    return runner.run();
}

} // namespace txrace::service
