/**
 * @file
 * End-to-end campaign tests: the determinism contract (byte-identical
 * reports for any --jobs count), strategy behaviour, and scoring on
 * real workload runs. Small matrices keep it fast; the apps chosen
 * (raytrace, canneal, streamcluster) are the cheapest in the
 * registry.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <sstream>

#include "campaign/campaign.hh"
#include "campaign/execute.hh"
#include "campaign/strategy.hh"
#include "core/repro.hh"
#include "service/ingest.hh"

using namespace txrace;
using namespace txrace::campaign;

namespace {

/** Parse a printed repro line as txrace_run parses its argv. */
core::RunIdentity
parseLine(const std::string &line)
{
    std::istringstream in(line);
    return core::parseRunCommand(
        {std::istream_iterator<std::string>(in), {}},
        [](size_t &) { return false; });
}

CampaignConfig
smallCampaign(const std::string &strategy)
{
    CampaignConfig cfg;
    cfg.apps = {"raytrace", "canneal"};
    cfg.seedsPerApp = 2;
    cfg.masterSeed = 7;
    cfg.strategy = strategy;
    return cfg;
}

JobOutcome
outcome(uint64_t jobId, const std::string &app, uint64_t seed,
        std::vector<FoundRace> races)
{
    JobOutcome o;
    o.spec.id = jobId;
    o.spec.run.name = app;
    o.spec.run.seed = seed;
    o.races = std::move(races);
    return o;
}

std::string
reportFor(CampaignConfig cfg, uint32_t jobs)
{
    cfg.jobs = jobs;
    CampaignResult result = runCampaign(cfg);
    std::ostringstream os;
    writeCampaignJson(os, cfg, result);
    return os.str();
}

} // namespace

TEST(Campaign, ReportByteIdenticalAcrossJobCounts)
{
    CampaignConfig cfg = smallCampaign("sweep");
    std::string one = reportFor(cfg, 1);
    EXPECT_EQ(one, reportFor(cfg, 4));
    EXPECT_EQ(one, reportFor(cfg, 8));
}

TEST(Campaign, AdaptiveStrategyStaysDeterministic)
{
    // abort-guided reseeds from round-0 results — the hard case for
    // worker-count independence.
    CampaignConfig cfg = smallCampaign("abort-guided");
    std::string one = reportFor(cfg, 1);
    EXPECT_EQ(one, reportFor(cfg, 4));
    EXPECT_EQ(one, reportFor(cfg, 8));
}

TEST(Campaign, RepeatedRunsAreIdentical)
{
    CampaignConfig cfg = smallCampaign("sweep");
    EXPECT_EQ(reportFor(cfg, 2), reportFor(cfg, 2));
}

TEST(Campaign, MasterSeedChangesTheSeedMatrix)
{
    CampaignConfig cfg = smallCampaign("sweep");
    CampaignResult a = runCampaign(cfg);
    cfg.masterSeed = 8;
    CampaignResult b = runCampaign(cfg);
    ASSERT_FALSE(a.findings.empty());
    ASSERT_FALSE(b.findings.empty());
    // Different job seeds, hence different repro lines.
    EXPECT_NE(a.findings[0].first.seed, b.findings[0].first.seed);
}

TEST(Campaign, ScoresPerfectOnEasyApps)
{
    // raytrace/canneal races reproduce on essentially every schedule,
    // and the models plant nothing that is not annotated: the union
    // over two seeds must score 1.0/1.0.
    CampaignConfig cfg = smallCampaign("sweep");
    CampaignResult result = runCampaign(cfg);
    ASSERT_EQ(result.scores.size(), 2u);
    for (const AppScore &s : result.scores) {
        EXPECT_DOUBLE_EQ(s.precision, 1.0) << s.app;
        EXPECT_DOUBLE_EQ(s.recall, 1.0) << s.app;
    }
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.runs, 4u);
}

TEST(Campaign, FindingsCarryReproMetadata)
{
    CampaignConfig cfg = smallCampaign("sweep");
    CampaignResult result = runCampaign(cfg);
    ASSERT_FALSE(result.findings.empty());
    for (const Finding &f : result.findings) {
        EXPECT_NE(f.first.repro.find("txrace_run --app " + f.app),
                  std::string::npos);
        EXPECT_NE(f.first.repro.find("--seed "), std::string::npos);
        EXPECT_NE(f.first.configDigest, 0u);
        EXPECT_GE(f.runsSeen, 1u);
    }
}

TEST(Campaign, FirstSeenReprosReplayTheirDigests)
{
    // Each finding's repro line, read back and built over the app
    // model it names, digests to the config that first found it.
    CampaignConfig cfg;
    cfg.apps = {"raytrace"};
    cfg.seedsPerApp = 2;
    cfg.strategy = "perturb";
    CampaignResult result = runCampaign(cfg);
    ASSERT_FALSE(result.findings.empty());
    std::map<std::string, uint64_t> digestOf;
    for (const Finding &f : result.findings)
        digestOf.emplace(f.first.repro, f.first.configDigest);

    // Perturb's first sightings are all base-variant runs; a streamed
    // job record carries the variant knobs, at any interrupt scale.
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(service::parseJobLine(R"({"app": "raytrace", "seed": 5, )"
                                      R"("irq_scale": 0.1234567, )"
                                      R"("governor": true})",
                                      cfg, spec, error))
        << error;
    WorkerCache cache;
    JobOutcome job = executeJob(spec, cache, cfg.slowpath);
    EXPECT_NE(job.repro.find(" --governor --irq-scale 0.1234567"),
              std::string::npos)
        << job.repro;
    digestOf.emplace(job.repro, job.configDigest);
    // A sampling job's line carries the rate it ran at.
    spec.run.mode = core::RunMode::TSanSampling;
    job = executeJob(spec, cache, cfg.slowpath);
    EXPECT_NE(job.repro.find(" --rate 1 "), std::string::npos) << job.repro;
    digestOf.emplace(job.repro, job.configDigest);

    for (const auto &[line, digest] : digestOf) {
        core::RunIdentity id = parseLine(line);
        const workloads::AppModel app = workloads::makeApp(
            id.name, {id.workers, id.scale, id.calibrated});
        EXPECT_EQ(core::configDigest(core::runConfigFor(id, app.machine)),
                  digest)
            << line;
    }
}

TEST(Campaign, PerturbVariantsAllRun)
{
    CampaignConfig cfg = smallCampaign("perturb");
    cfg.seedsPerApp = 1;
    CampaignResult result = runCampaign(cfg);
    EXPECT_EQ(result.runs, 2u * 1u * 5u);  // apps x seeds x variants
    EXPECT_EQ(result.variants.size(), 5u);
    for (const VariantYield &vy : result.variants)
        EXPECT_EQ(vy.runs, 2u);
}

TEST(Campaign, TimingIsOutsideTheReport)
{
    CampaignConfig cfg = smallCampaign("sweep");
    cfg.jobs = 2;
    CampaignResult result = runCampaign(cfg);
    std::ostringstream os;
    writeCampaignJson(os, cfg, result);
    EXPECT_EQ(os.str().find("wall"), std::string::npos);
    EXPECT_EQ(os.str().find("\"jobs\""), std::string::npos);
    EXPECT_GT(result.timing.wallSeconds, 0.0);
    EXPECT_EQ(result.timing.jobs, 2u);
}

TEST(Campaign, DeriveSeedIsStableAndSpreads)
{
    uint64_t s1 = deriveSeed(1, "vips", 0, 0);
    EXPECT_EQ(s1, deriveSeed(1, "vips", 0, 0));
    EXPECT_NE(s1, deriveSeed(1, "vips", 0, 1));
    EXPECT_NE(s1, deriveSeed(1, "vips", 1, 0));
    EXPECT_NE(s1, deriveSeed(1, "x264", 0, 0));
    EXPECT_NE(s1, deriveSeed(2, "vips", 0, 0));
}

TEST(Strategy, SaveRestoreContinuesWhereTheOriginalStopped)
{
    CampaignConfig cfg;
    cfg.apps = {"raytrace", "canneal"};
    cfg.seedsPerApp = 4;
    for (const std::string &name : strategyNames()) {
        cfg.strategy = name;
        std::unique_ptr<Strategy> original = makeStrategy(name);
        uint64_t nextId = 0;
        std::vector<JobOutcome> history;
        std::vector<JobSpec> round0 =
            original->nextRound(cfg, history, nextId);
        ASSERT_FALSE(round0.empty()) << name;
        for (const JobSpec &spec : round0) {
            JobOutcome o = outcome(spec.id, spec.run.name, spec.run.seed, {});
            o.spec = spec;
            o.abortConflict = spec.id % 4;
            history.push_back(o);
        }

        // Kill here: a resumed strategy must emit the same round 1.
        std::map<std::string, uint64_t> state;
        original->saveState(state);
        std::unique_ptr<Strategy> resumed = makeStrategy(name);
        resumed->restoreState(state);

        uint64_t idA = nextId, idB = nextId;
        std::vector<JobSpec> wantRound =
            original->nextRound(cfg, history, idA);
        std::vector<JobSpec> gotRound =
            resumed->nextRound(cfg, history, idB);
        EXPECT_EQ(idA, idB) << name;
        ASSERT_EQ(wantRound.size(), gotRound.size()) << name;
        for (size_t i = 0; i < wantRound.size(); ++i) {
            EXPECT_EQ(wantRound[i].id, gotRound[i].id) << name;
            EXPECT_EQ(wantRound[i].run.name, gotRound[i].run.name) << name;
            EXPECT_EQ(wantRound[i].run.seed, gotRound[i].run.seed) << name;
            EXPECT_EQ(wantRound[i].variant, gotRound[i].variant)
                << name;
        }
    }
}

TEST(CampaignDeathTest, UnknownStrategyIsFatal)
{
    CampaignConfig cfg = smallCampaign("simulated-annealing");
    EXPECT_EXIT(runCampaign(cfg), testing::ExitedWithCode(1),
                "unknown strategy");
}

TEST(CampaignDeathTest, EmptyAppListIsFatal)
{
    CampaignConfig cfg;
    EXPECT_EXIT(runCampaign(cfg), testing::ExitedWithCode(1),
                "no apps");
}
