/**
 * @file
 * End-to-end service tests: the kill-and-resume determinism contract
 * (an interrupted + resumed campaign emits byte-identical artifacts
 * to an uninterrupted one, for any --jobs), stream-mode
 * ingestion, cross-host store union, and the progress side channel.
 * In-process interruption uses the service's stop flag — the same
 * path the SIGTERM handler drives in txrace_hunt.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/campaign.hh"
#include "service/checkpoint.hh"
#include "service/service.hh"
#include "service/store.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::service;

namespace {

namespace fs = std::filesystem;

campaign::CampaignConfig
smallCampaign()
{
    campaign::CampaignConfig cfg;
    cfg.apps = {"raytrace", "canneal"};
    cfg.seedsPerApp = 2;
    cfg.masterSeed = 7;
    cfg.jobs = 2;
    return cfg;
}

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "txrace_service_" + name;
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::string out, error;
    EXPECT_TRUE(readFile(path, out, error)) << error;
    return out;
}

/** Run a service campaign start to finish in @p dir. */
ServiceResult
runToCompletion(const campaign::CampaignConfig &cfg,
                const std::string &dir, std::ostream *progress = nullptr)
{
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = dir;
    opt.checkpointEvery = 1;
    opt.progressJson = progress;
    ServiceResult res = runService(opt);
    EXPECT_TRUE(res.completed);
    return res;
}

} // namespace

TEST(Service, CampaignJsonMatchesRunCampaignByteExactly)
{
    campaign::CampaignConfig cfg = smallCampaign();
    const std::string dir = freshDir("vs_campaign");
    runToCompletion(cfg, dir);

    campaign::CampaignResult direct = campaign::runCampaign(cfg);
    std::ostringstream os;
    campaign::writeCampaignJson(os, cfg, direct);
    EXPECT_EQ(slurp(dir + "/campaign.json"), os.str());
    fs::remove_all(dir);
}

TEST(Service, KillAndResumeIsByteIdenticalForAnyJobs)
{
    campaign::CampaignConfig base = smallCampaign();
    const std::string refDir = freshDir("resume_ref");
    runToCompletion(base, refDir);
    const std::string wantCampaign = slurp(refDir + "/campaign.json");
    const std::string wantFindings = slurp(refDir + "/findings.json");

    for (uint32_t jobs : {1u, 8u}) {
        campaign::CampaignConfig cfg = base;
        cfg.jobs = jobs;
        const std::string dir =
            freshDir("resume_" + std::to_string(jobs));

        // Interrupt almost immediately: the stop flag is already
        // raised, so the service folds one job, checkpoints, and
        // shuts down — exactly the SIGTERM path.
        std::atomic<bool> stop{true};
        ServiceOptions opt;
        opt.cfg = cfg;
        opt.stateDir = dir;
        opt.checkpointEvery = 1;
        opt.stopFlag = &stop;
        ServiceResult interrupted = runService(opt);
        EXPECT_FALSE(interrupted.completed);
        EXPECT_GT(interrupted.checkpoints, 0u);
        ASSERT_TRUE(fs::exists(dir + "/checkpoint.json"));

        // A second interrupted leg: resume, fold a bit, die again.
        // On resume the identity comes from the checkpoint, whatever
        // the options say; execution knobs come from the options.
        opt.resume = true;
        opt.cfg.masterSeed = base.masterSeed + 1;
        opt.cfg.apps = {"vips"};
        opt.cfg.progressEvery = 1;
        ServiceResult again = runService(opt);
        EXPECT_FALSE(again.completed);

        // Final leg completes, under another pool size.
        const uint32_t finalJobs = jobs == 1 ? 8 : 1;
        opt.cfg.jobs = finalJobs;
        stop.store(false);
        ServiceResult done = runService(opt);
        EXPECT_TRUE(done.completed);
        EXPECT_EQ(done.cfg.masterSeed, base.masterSeed);
        EXPECT_EQ(done.cfg.apps, base.apps);
        EXPECT_EQ(done.cfg.jobs, finalJobs);
        EXPECT_EQ(done.cfg.progressEvery, 1u);
        EXPECT_EQ(done.report.timing.jobs, finalJobs);

        EXPECT_EQ(slurp(dir + "/campaign.json"), wantCampaign)
            << "jobs=" << jobs;
        EXPECT_EQ(slurp(dir + "/findings.json"), wantFindings)
            << "jobs=" << jobs;
        fs::remove_all(dir);
    }
    fs::remove_all(refDir);
}

TEST(Service, ReportCarriesOneSpanPerJob)
{
    campaign::CampaignConfig cfg = smallCampaign();
    const std::string dir = freshDir("spans");
    ServiceResult res = runToCompletion(cfg, dir);
    const campaign::CampaignTiming &timing = res.report.timing;
    ASSERT_EQ(timing.spans.size(), res.jobsFolded);
    ASSERT_EQ(timing.spans.size(), res.report.runs);
    // Id order: this campaign's job ids are 0..runs-1.
    for (size_t i = 0; i < timing.spans.size(); ++i)
        EXPECT_EQ(timing.spans[i].job, i);
    EXPECT_EQ(timing.jobs, cfg.jobs);
    EXPECT_GT(timing.runsPerSec, 0.0);

    std::ostringstream ss;
    campaign::writeCampaignTrace(ss, res.report);
    const std::string trace = ss.str();
    size_t spans = 0;
    for (size_t pos = 0;
         (pos = trace.find("\"ph\":\"X\"", pos)) != std::string::npos;
         ++pos)
        ++spans;
    EXPECT_EQ(spans, res.report.runs);
    fs::remove_all(dir);
}

TEST(Service, AdaptiveStrategySurvivesMidCampaignKill)
{
    // abort-guided reseeds from round-0 history — resume must rebuild
    // that history from the checkpoint, not re-observe it.
    campaign::CampaignConfig cfg = smallCampaign();
    cfg.strategy = "abort-guided";
    cfg.seedsPerApp = 4;

    const std::string refDir = freshDir("adaptive_ref");
    runToCompletion(cfg, refDir);

    const std::string dir = freshDir("adaptive_resume");
    std::atomic<bool> stop{true};
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = dir;
    opt.checkpointEvery = 1;
    opt.stopFlag = &stop;
    EXPECT_FALSE(runService(opt).completed);
    stop.store(false);
    opt.resume = true;
    EXPECT_TRUE(runService(opt).completed);

    EXPECT_EQ(slurp(dir + "/campaign.json"),
              slurp(refDir + "/campaign.json"));
    fs::remove_all(dir);
    fs::remove_all(refDir);
}

TEST(Service, ResumeAfterCompletionIsAnIdempotentNoOp)
{
    campaign::CampaignConfig cfg = smallCampaign();
    const std::string dir = freshDir("noop_resume");
    runToCompletion(cfg, dir);
    const std::string campaignBytes = slurp(dir + "/campaign.json");
    const std::string findingsBytes = slurp(dir + "/findings.json");

    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = dir;
    opt.resume = true;
    ServiceResult res = runService(opt);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.jobsFolded, 0u);
    EXPECT_EQ(slurp(dir + "/campaign.json"), campaignBytes);
    EXPECT_EQ(slurp(dir + "/findings.json"), findingsBytes);
    fs::remove_all(dir);
}

TEST(Service, SpoolIngestIsDeterministicAcrossJobs)
{
    const std::string spool = freshDir("spool_src");
    fs::create_directories(spool);
    std::ofstream(spool + "/001.ndjson")
        << "{\"app\": \"raytrace\", \"seed\": 3}\n"
        << "{\"app\": \"raytrace\", \"seed\": 4}\n";
    std::ofstream(spool + "/002.ndjson")
        << "{\"app\": \"canneal\", \"seed\": 7}\n";

    campaign::CampaignConfig cfg = smallCampaign();
    std::string want;
    for (uint32_t pass = 0; pass < 2; ++pass) {
        cfg.jobs = pass == 0 ? 1 : 4;
        const std::string dir =
            freshDir("spool_run" + std::to_string(pass));
        ServiceOptions opt;
        opt.cfg = cfg;
        opt.stateDir = dir;
        opt.spoolDir = spool;
        ServiceResult res = runService(opt);
        EXPECT_TRUE(res.completed);
        EXPECT_EQ(res.jobsFolded, 3u);
        std::string got = slurp(dir + "/findings.json");
        if (want.empty())
            want = got;
        EXPECT_EQ(got, want);
        fs::remove_all(dir);
    }
    fs::remove_all(spool);
}

TEST(Service, SpoolResumeKeepsJobIdsStable)
{
    const std::string spool = freshDir("spool_resume_src");
    fs::create_directories(spool);
    std::ofstream(spool + "/001.ndjson")
        << "{\"app\": \"raytrace\", \"seed\": 3}\n"
        << "{\"app\": \"canneal\", \"seed\": 7}\n";

    campaign::CampaignConfig cfg = smallCampaign();
    const std::string refDir = freshDir("spool_resume_ref");
    {
        ServiceOptions opt;
        opt.cfg = cfg;
        opt.stateDir = refDir;
        opt.spoolDir = spool;
        EXPECT_TRUE(runService(opt).completed);
    }

    const std::string dir = freshDir("spool_resume_run");
    std::atomic<bool> stop{true};
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = dir;
    opt.spoolDir = spool;
    opt.checkpointEvery = 1;
    opt.stopFlag = &stop;
    EXPECT_FALSE(runService(opt).completed);
    stop.store(false);
    opt.resume = true;
    ServiceResult res = runService(opt);
    EXPECT_TRUE(res.completed);
    // The interrupted leg folded some jobs; resume must skip exactly
    // those (stable spool id assignment), not re-fold them.
    EXPECT_GT(res.duplicatesSkipped, 0u);

    EXPECT_EQ(slurp(dir + "/findings.json"),
              slurp(refDir + "/findings.json"));
    fs::remove_all(dir);
    fs::remove_all(refDir);
    fs::remove_all(spool);
}

TEST(Service, SpoolStopOnABatchEndKeepsTheRoundCount)
{
    // One job per batch: the pre-raised stop lands on the last job of
    // the first batch, so the stopped leg has folded a whole round.
    // Resume skips that fully seen batch and must still count it.
    const std::string spool = freshDir("spool_edge_src");
    fs::create_directories(spool);
    std::ofstream(spool + "/001.ndjson")
        << "{\"app\": \"raytrace\", \"seed\": 3}\n";
    std::ofstream(spool + "/002.ndjson")
        << "{\"app\": \"canneal\", \"seed\": 7}\n";

    campaign::CampaignConfig cfg = smallCampaign();
    cfg.jobs = 1;
    const std::string refDir = freshDir("spool_edge_ref");
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = refDir;
    opt.spoolDir = spool;
    EXPECT_TRUE(runService(opt).completed);

    const std::string dir = freshDir("spool_edge_run");
    std::atomic<bool> stop{true};
    opt.stateDir = dir;
    opt.stopFlag = &stop;
    ServiceResult stopped = runService(opt);
    EXPECT_FALSE(stopped.completed);
    EXPECT_EQ(stopped.jobsFolded, 1u);
    stop.store(false);
    opt.resume = true;
    EXPECT_TRUE(runService(opt).completed);

    for (const char *file :
         {"/campaign.json", "/findings.json", "/checkpoint.json"})
        EXPECT_EQ(slurp(dir + file), slurp(refDir + file)) << file;
    for (const std::string &d : {dir, refDir, spool})
        fs::remove_all(d);
}

TEST(Service, StdinBatchesFoldLikeSpoolBatches)
{
    campaign::CampaignConfig cfg = smallCampaign();
    const std::string dir = freshDir("stdin_run");
    std::istringstream jobs(
        "{\"app\": \"raytrace\", \"seed\": 3}\n"
        "{\"app\": \"raytrace\", \"seed\": 4}\n"
        "\n"
        "{\"app\": \"canneal\", \"seed\": 7}\n");
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = dir;
    opt.jobStream = &jobs;
    ServiceResult res = runService(opt);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.jobsFolded, 3u);

    FindingsStore store;
    std::string error;
    ASSERT_TRUE(FindingsStore::parse(slurp(dir + "/findings.json"),
                                     store, error))
        << error;
    EXPECT_EQ(store.aggregate.runs(), 3u);
    fs::remove_all(dir);
}

TEST(Service, StdinRefusesBadRecordsAndKeepsServing)
{
    // Each of the first five records names something the workload
    // registry cannot build (or no app at all) or a negative interrupt
    // scale. The service refuses them with a warning instead of
    // exiting, counts them in its heartbeat gauges, and the good job
    // after them still folds.
    campaign::CampaignConfig cfg = smallCampaign();
    const std::string dir = freshDir("stdin_refuse");
    std::istringstream jobs("{\"app\": \"raytrace\", \"scale\": 0}\n"
                            "{\"app\": \"raytrace\", \"workers\": 1}\n"
                            "{\"app\": \"nosuch\"}\n"
                            "{\"seed\": 3}\n"
                            "{\"app\": \"raytrace\", \"seed\": 3, "
                            "\"irq_scale\": -2}\n"
                            "{\"app\": \"raytrace\", \"seed\": 5}\n");
    std::ostringstream progress;
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.stateDir = dir;
    opt.jobStream = &jobs;
    opt.progressJson = &progress;
    ServiceResult res = runService(opt);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.jobsFolded, 1u);
    // The closing heartbeat carries all five refusals.
    const std::string stream = progress.str();
    const size_t end = stream.rfind("\"event\":\"end\"");
    ASSERT_NE(end, std::string::npos) << stream;
    const std::string last = stream.substr(stream.rfind('\n', end) + 1);
    EXPECT_NE(last.find("\"jobs_refused\":5"), std::string::npos) << last;

    FindingsStore store;
    std::string error;
    ASSERT_TRUE(FindingsStore::parse(slurp(dir + "/findings.json"),
                                     store, error))
        << error;
    EXPECT_EQ(store.aggregate.runs(), 1u);
    fs::remove_all(dir);
}

namespace {

/** A progress sink that raises @p stop once @p after "progress"
 *  heartbeats have been written — a kill part-way through a round. */
class StopAfterProgress : public std::streambuf
{
  public:
    StopAfterProgress(std::atomic<bool> &stop, int after)
        : stop_(stop), left_(after)
    {
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c == '\n') {
            if (line_.find("\"event\":\"progress\"") !=
                    std::string::npos &&
                --left_ == 0)
                stop_.store(true);
            line_.clear();
        } else if (c != traits_type::eof()) {
            line_ += traits_type::to_char_type(c);
        }
        return traits_type::not_eof(c);
    }

  private:
    std::atomic<bool> &stop_;
    int left_;
    std::string line_;
};

} // namespace

TEST(Service, StdinResumeFoldsEachJobOnce)
{
    // One 12-job batch and a 2-job batch on stdin. The first leg is
    // stopped after 5 folds; the pool may finish more of the first
    // batch before it drains, up to all of it. The resumed leg is
    // re-fed the stream from its start and must fold exactly the jobs
    // the first leg did not, wherever the stop landed.
    std::string text;
    for (uint64_t seed = 1; seed <= 12; ++seed)
        text += "{\"app\": \"" +
                std::string(seed % 2 ? "raytrace" : "canneal") +
                "\", \"seed\": " + std::to_string(seed) + "}\n";
    text += "\n{\"app\": \"raytrace\", \"seed\": 40}\n"
            "{\"app\": \"canneal\", \"seed\": 41}\n";

    campaign::CampaignConfig cfg = smallCampaign();
    cfg.jobs = 1;
    const std::string refDir = freshDir("stdin_resume_ref");
    {
        std::istringstream jobs(text);
        ServiceOptions opt;
        opt.cfg = cfg;
        opt.stateDir = refDir;
        opt.jobStream = &jobs;
        ServiceResult res = runService(opt);
        EXPECT_TRUE(res.completed);
        EXPECT_EQ(res.jobsFolded, 14u);
    }

    const std::string dir = freshDir("stdin_resume_run");
    std::atomic<bool> stop{false};
    StopAfterProgress sink(stop, 5);
    std::ostream progress(&sink);
    std::istringstream first(text);
    ServiceOptions opt;
    opt.cfg = cfg;
    opt.cfg.progressEvery = 1;
    opt.stateDir = dir;
    opt.jobStream = &first;
    opt.progressJson = &progress;
    opt.stopFlag = &stop;
    ServiceResult killed = runService(opt);
    EXPECT_FALSE(killed.completed);
    EXPECT_GE(killed.jobsFolded, 5u);
    EXPECT_LE(killed.jobsFolded, 12u);

    stop.store(false);
    std::istringstream again(text);
    opt.jobStream = &again;
    opt.progressJson = nullptr;
    opt.resume = true;
    ServiceResult resumed = runService(opt);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(killed.jobsFolded + resumed.jobsFolded, 14u);
    EXPECT_EQ(resumed.duplicatesSkipped, killed.jobsFolded);

    for (const char *file : {"/campaign.json", "/findings.json"})
        EXPECT_EQ(slurp(dir + file), slurp(refDir + file)) << file;
    fs::remove_all(dir);
    fs::remove_all(refDir);
}

TEST(Service, CrossHostStoresUnionIdenticallyInBothOrders)
{
    // Two hosts hunt disjoint halves of the same campaign via spools;
    // their stores must union into identical bytes in either order.
    campaign::CampaignConfig cfg = smallCampaign();
    const std::string spoolA = freshDir("host_a_spool");
    const std::string spoolB = freshDir("host_b_spool");
    fs::create_directories(spoolA);
    fs::create_directories(spoolB);
    std::ofstream(spoolA + "/001.ndjson")
        << "{\"app\": \"raytrace\", \"seed\": 3}\n"
        << "{\"app\": \"raytrace\", \"seed\": 4}\n";
    std::ofstream(spoolB + "/001.ndjson")
        << "{\"app\": \"canneal\", \"seed\": 7}\n"
        << "{\"app\": \"canneal\", \"seed\": 8}\n";

    const std::string dirA = freshDir("host_a");
    const std::string dirB = freshDir("host_b");
    for (auto [dir, spool] : {std::pair{dirA, spoolA},
                              std::pair{dirB, spoolB}}) {
        ServiceOptions opt;
        opt.cfg = cfg;
        opt.stateDir = dir;
        opt.spoolDir = spool;
        EXPECT_TRUE(runService(opt).completed);
    }

    FindingsStore a, b;
    std::string error;
    ASSERT_TRUE(FindingsStore::parse(slurp(dirA + "/findings.json"),
                                     a, error))
        << error;
    ASSERT_TRUE(FindingsStore::parse(slurp(dirB + "/findings.json"),
                                     b, error))
        << error;
    FindingsStore ab = a, ba = b;
    ASSERT_TRUE(ab.merge(b, error)) << error;
    ASSERT_TRUE(ba.merge(a, error)) << error;
    std::ostringstream osAB, osBA;
    ab.write(osAB);
    ba.write(osBA);
    EXPECT_EQ(osAB.str(), osBA.str());

    for (const std::string &d : {dirA, dirB, spoolA, spoolB})
        fs::remove_all(d);
}

TEST(Service, ProgressStreamCarriesGaugesAndFindingDeltas)
{
    campaign::CampaignConfig cfg = smallCampaign();
    cfg.progressEvery = 1;
    const std::string dir = freshDir("progress");
    std::ostringstream progress;
    runToCompletion(cfg, dir, &progress);
    const std::string stream = progress.str();

    EXPECT_NE(stream.find("\"event\":\"start\""), std::string::npos);
    EXPECT_NE(stream.find("\"event\":\"finding\""),
              std::string::npos);
    EXPECT_NE(stream.find("\"event\":\"checkpoint\""),
              std::string::npos);
    EXPECT_NE(stream.find("\"event\":\"end\""), std::string::npos);
    EXPECT_NE(stream.find("\"service\""), std::string::npos);
    EXPECT_NE(stream.find("\"jobs_ingested\""), std::string::npos);
    EXPECT_NE(stream.find("\"checkpoints\""), std::string::npos);
    EXPECT_NE(stream.find("\"fingerprint\""), std::string::npos);
    // NDJSON: every record is one line of valid compact JSON.
    std::istringstream lines(stream);
    std::string line;
    size_t records = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++records;
    }
    EXPECT_GT(records, 4u);
    fs::remove_all(dir);
}

TEST(ServiceE2E, AllWorkloadsJobsDeterminism)
{
    // The full registry x 10 seeds, byte-identical across pool sizes
    // — the heavyweight pin that completion order never reaches the
    // report.
    campaign::CampaignConfig cfg;
    cfg.apps = workloads::appNames();
    cfg.seedsPerApp = 10;
    cfg.masterSeed = 3;
    std::string want;
    for (uint32_t jobs : {1u, 4u}) {
        cfg.jobs = jobs;
        campaign::CampaignResult result = campaign::runCampaign(cfg);
        std::ostringstream os;
        campaign::writeCampaignJson(os, cfg, result);
        if (want.empty())
            want = os.str();
        EXPECT_EQ(os.str(), want) << jobs << " jobs";
    }
}
