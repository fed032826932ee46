#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/runner.hh"
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

/** The whole service loop as one object so the round body, the
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
    /** One round, from every ingest path: persist @p plan (not
     *  empty) as the pending round, run its unseen jobs, close the
     *  barrier. Returns false when a stop was requested (shutdown
     *  already checkpointed). */
    bool runRound(std::vector<campaign::JobSpec> plan);
    /** What ingestBatch() did with a batch. */
    enum class Batch { Duplicate, Folded, Stopped };
    /** One batch from the spool or stdin, under @p key: a name that
     *  stays the same when the batch is delivered again (the spool
     *  file's name, or "/stdin/<n>" for the n-th stdin batch, which no
     *  file name can be). The first id ever given to @p key is reused,
     *  so a redelivered batch folds only the jobs not folded yet. */
    Batch ingestBatch(const std::string &key,
                      std::vector<campaign::JobSpec> specs);
    void foldOutcome(const campaign::JobOutcome &outcome);
    void checkpointNow();
    void emitHeartbeat(const std::string &event);
    void emitDelta(const campaign::JobOutcome &outcome,
                   const campaign::FoundRace &race);
    bool strategyLoop();
    bool streamLoop();
    void writeFinal(ServiceResult &res);

    ServiceOptions opt_;
    campaign::CampaignConfig cfg_;
    campaign::GroundTruth groundTruth_;

    /** Folded only on this thread (rounds and the shutdown drain);
     *  pool workers never touch it. */
    campaign::Aggregator agg_;
    std::unique_ptr<campaign::Strategy> strategy_;
    std::vector<campaign::JobOutcome> history_;
    std::vector<OutcomeSummary> summaries_;
    /** First job id of every spool file and stdin batch ever seen
     *  (see ingestBatch), persisted in the checkpoint. */
    std::map<std::string, uint64_t> spoolFirstId_;
    /** Spool files fully folded by THIS process: skipped silently on
     *  re-scan so follow-mode polling doesn't re-count them as
     *  redelivered duplicates every tick. */
    std::set<std::string> spoolDrained_;
    std::vector<campaign::JobSpec> plan_;
    uint64_t nextId_ = 0;
    uint64_t roundsDone_ = 0;
    uint64_t jobsTotal_ = 0;

    /** Built once the (possibly restored) campaign is known. */
    std::unique_ptr<campaign::RoundRunner> runner_;
    telemetry::ServiceStats stats_;
};

void
ServiceRunner::restoreOrInit()
{
    cfg_ = opt_.cfg;
    Checkpoint ck;
    if (opt_.resume) {
        const std::string path = opt_.stateDir + "/checkpoint.json";
        std::string text, error;
        if (!readFile(path, text, error))
            fatal("--resume: %s", error.c_str());
        if (!Checkpoint::parse(text, ck, error))
            fatal("--resume: %s: %s", path.c_str(), error.c_str());
        // Identity comes from the checkpoint; execution knobs (jobs,
        // cadence) stay with the CLI.
        adoptCampaignIdentity(cfg_, ck.campaign);

        nextId_ = ck.nextId;
        roundsDone_ = ck.roundsDone;
        jobsTotal_ = ck.jobsTotal;
        plan_ = std::move(ck.plan);
        summaries_ = std::move(ck.history);
        spoolFirstId_ = std::move(ck.spoolFirstId);
        agg_ = std::move(ck.aggregate);

        for (const OutcomeSummary &s : summaries_)
            history_.push_back(s.toOutcome());
        campaign::sortById(history_);
        ++stats_.resumes;
        if (opt_.chatter)
            *opt_.chatter << "resumed: " << summaries_.size()
                          << " outcome(s), next id " << nextId_
                          << ", " << plan_.size()
                          << " job(s) in the pending round\n";
    }
    // A fresh campaign restores the empty state: the strategy's start.
    strategy_ = campaign::makeStrategy(cfg_.strategy);
    strategy_->restoreState(ck.strategyState);

    if (cfg_.apps.empty())
        fatal("--serve: no apps selected");
    groundTruth_ = campaign::groundTruthFor(cfg_.apps);
}

void
ServiceRunner::emitHeartbeat(const std::string &event)
{
    if (!opt_.progressJson)
        return;
    campaign::ProgressRecord rec =
        runner_->progress(event, roundsDone_, jobsTotal_, agg_);
    double secs = runner_->elapsedSeconds();
    uint64_t rate =
        secs > 0.0 ? uint64_t(double(stats_.jobsIngested) / secs) : 0;
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
    w.field("app", outcome.spec.run.name);
    w.field("fingerprint", telemetry::hex64(race.sig.hash));
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
ServiceRunner::foldOutcome(const campaign::JobOutcome &outcome)
{
    std::vector<const campaign::FoundRace *> fresh;
    if (!agg_.add(outcome, &fresh)) {
        ++stats_.duplicatesSkipped;
        return;
    }
    ++stats_.jobsIngested;
    for (const campaign::FoundRace *race : fresh)
        emitDelta(outcome, *race);
    summaries_.push_back(OutcomeSummary::of(outcome));
    // Strategies see the summary, exactly what a resume restores.
    history_.push_back(summaries_.back().toOutcome());
    if (opt_.progressJson && cfg_.progressEvery > 0 &&
        stats_.jobsIngested % cfg_.progressEvery == 0)
        emitHeartbeat("progress");
}

bool
ServiceRunner::runRound(std::vector<campaign::JobSpec> plan)
{
    // Persist the plan before running it: a kill mid-round resumes
    // THIS round, not a rederived one.
    jobsTotal_ = std::max(jobsTotal_, plan.back().id + 1);
    plan_ = std::move(plan);
    checkpointNow();
    std::vector<campaign::JobSpec> todo;
    for (const campaign::JobSpec &spec : plan_)
        if (agg_.seen(spec.id))
            ++stats_.duplicatesSkipped;
        else
            todo.push_back(spec);

    uint64_t sinceCkpt = 0;
    bool finished =
        runner_->runRound(todo, [&](campaign::JobOutcome outcome) {
            foldOutcome(outcome);
            if (opt_.checkpointEvery > 0 &&
                ++sinceCkpt >= opt_.checkpointEvery) {
                checkpointNow();
                sinceCkpt = 0;
            }
            return !stopRequested();
        });
    if (!finished) {
        if (opt_.chatter)
            *opt_.chatter << "stop requested: draining in-flight jobs\n";
        runner_->stopAndDrain([this](campaign::JobOutcome outcome) {
            foldOutcome(outcome);
            return true;
        });
        checkpointNow();
        emitHeartbeat("shutdown");
        return false;
    }
    campaign::sortById(history_);
    plan_.clear();
    ++roundsDone_;
    checkpointNow();
    return true;
}

bool
ServiceRunner::strategyLoop()
{
    // A pending plan from the checkpoint runs first; afterwards the
    // restored strategy state machine continues from its next round.
    std::vector<campaign::JobSpec> plan =
        plan_.empty() ? strategy_->nextRound(cfg_, history_, nextId_)
                      : plan_;
    while (!plan.empty()) {
        if (opt_.chatter)
            *opt_.chatter << "round " << roundsDone_ << ": "
                          << plan.size() << " job(s) ["
                          << strategy_->name() << "]\n";
        if (!runRound(std::move(plan)))
            return false;
        if (stopRequested()) {
            emitHeartbeat("shutdown");
            return false;
        }
        plan = strategy_->nextRound(cfg_, history_, nextId_);
    }
    return true;
}

ServiceRunner::Batch
ServiceRunner::ingestBatch(const std::string &key,
                           std::vector<campaign::JobSpec> specs)
{
    auto [first, fresh] = spoolFirstId_.try_emplace(key, nextId_);
    if (fresh) {
        nextId_ += specs.size();
        ++stats_.batches;
    }
    const uint64_t base = first->second;
    bool anyNew = false;
    for (size_t i = 0; i < specs.size(); ++i) {
        specs[i].id = base + i;
        specs[i].round = uint32_t(roundsDone_);
        anyNew |= !agg_.seen(specs[i].id);
    }
    // The pending round of the checkpoint we resumed from still needs
    // its barrier, even when a stop drained every one of its jobs.
    const bool pending = !specs.empty() && !plan_.empty() &&
                         plan_.front().id == base;
    if (!anyNew && !pending) {
        // Redelivered batch, fully folded already (e.g. before the
        // checkpoint we resumed from): still duplicates from the
        // ingest point of view.
        stats_.duplicatesSkipped += specs.size();
        return Batch::Duplicate;
    }
    if (opt_.chatter)
        *opt_.chatter << "batch " << key << ": " << specs.size()
                      << " job(s)\n";
    return runRound(std::move(specs)) ? Batch::Folded : Batch::Stopped;
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
                if (const size_t refused =
                        parseJobBatch(text, cfg_, specs, error)) {
                    stats_.jobsRefused += refused;
                    warn("spool: %s: refused %s", name.c_str(),
                         error.c_str());
                }
                Batch b = ingestBatch(name, std::move(specs));
                if (b == Batch::Stopped)
                    return false;
                ingested |= b == Batch::Folded;
                spoolDrained_.insert(name);
            }
        }
        if (opt_.jobStream) {
            // A resumed service is re-fed the stream from its start:
            // batch n keeps its key, hence its ids, across processes.
            std::string line, batchText;
            uint64_t batchNo = 0;
            auto flush = [&]() -> bool {
                if (batchText.empty())
                    return true;
                std::vector<campaign::JobSpec> specs;
                std::string error;
                if (const size_t refused =
                        parseJobBatch(batchText, cfg_, specs, error)) {
                    stats_.jobsRefused += refused;
                    warn("stdin batch: refused %s", error.c_str());
                }
                batchText.clear();
                if (specs.empty())
                    return true;
                Batch b = ingestBatch(
                    "/stdin/" + std::to_string(batchNo++),
                    std::move(specs));
                ingested |= b == Batch::Folded;
                return b != Batch::Stopped;
            };
            while (!stopRequested() &&
                   std::getline(*opt_.jobStream, line)) {
                if (line.find_first_not_of(" \t\r") ==
                    std::string::npos) {
                    if (!flush())
                        return false;
                } else {
                    batchText += line;
                    batchText += "\n";
                }
            }
            // A stop leaves the batch being read unrun: run in part,
            // it would claim fewer ids than its re-fed whole needs.
            if (!stopRequested()) {
                if (!flush())
                    return false;
                opt_.jobStream = nullptr; // EOF: stream is done
            }
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
    res.cfg = cfg_;
    res.report = agg_.finalize(cfg_, groundTruth_);
    res.report.timing = runner_->timing();

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
    std::error_code ec;
    std::filesystem::create_directories(opt_.stateDir, ec);
    if (ec)
        fatal("cannot create state dir %s", opt_.stateDir.c_str());

    restoreOrInit();
    runner_ = std::make_unique<campaign::RoundRunner>(cfg_);
    emitHeartbeat(opt_.resume ? "resume" : "start");

    const bool stream =
        !opt_.spoolDir.empty() || opt_.jobStream != nullptr;
    ServiceResult res;
    res.completed = stream ? streamLoop() : strategyLoop();
    if (res.completed)
        writeFinal(res);
    res.jobsFolded = stats_.jobsIngested;
    res.duplicatesSkipped = stats_.duplicatesSkipped;
    res.checkpoints = stats_.checkpoints;
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
