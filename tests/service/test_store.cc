/**
 * @file
 * Persistent-store and checkpoint tests: byte-exact round trips,
 * commutative cross-host merge, and the validation contract — every
 * versioned loader rejects truncated, wrong-version, or inconsistent
 * input with a structured error naming the offending path, and never
 * crashes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>

#include "campaign/aggregate.hh"
#include "campaign/strategy.hh"
#include "core/fingerprint.hh"
#include "core/repro.hh"
#include "service/checkpoint.hh"
#include "service/ingest.hh"
#include "service/store.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"
#include "telemetry/profile.hh"

using namespace txrace;
using namespace txrace::service;

namespace {

core::RaceSig
sig(const std::string &key)
{
    core::RaceSig s;
    // The stores persist sigs, and the loader cross-checks the hash
    // against the key — fabricated sigs must use the real hash.
    s.hash = core::fnv1a64(key);
    s.key = key;
    s.label = key;
    s.a = "a:" + key;
    s.b = "b:" + key;
    return s;
}

campaign::JobOutcome
outcome(uint64_t jobId, const std::string &app, uint64_t seed,
        std::vector<std::string> raceKeys)
{
    campaign::JobOutcome o;
    o.spec.id = jobId;
    o.spec.run.name = app;
    o.spec.run.seed = seed;
    o.repro = "txrace_run --app " + app;
    o.configDigest = 0xd1600 + jobId;
    o.txCommitted = 10;
    for (const std::string &key : raceKeys) {
        campaign::FoundRace f;
        f.sig = sig(key);
        f.hits = 1;
        o.races.push_back(f);
    }
    return o;
}

/** Parse a printed repro line as txrace_run parses its argv. */
core::RunIdentity
parseLine(const std::string &line)
{
    std::istringstream in(line);
    return core::parseRunCommand(
        {std::istream_iterator<std::string>(in), {}},
        [](size_t &) { return false; });
}

campaign::CampaignConfig
identity()
{
    campaign::CampaignConfig cfg;
    cfg.apps = {"raytrace", "canneal"};
    cfg.seedsPerApp = 2;
    cfg.masterSeed = 7;
    return cfg;
}

FindingsStore
storeWith(std::vector<campaign::JobOutcome> outcomes)
{
    FindingsStore store;
    store.campaign = identity();
    for (const campaign::JobOutcome &o : outcomes)
        store.aggregate.add(o);
    return store;
}

std::string
bytesOf(const FindingsStore &store)
{
    std::ostringstream os;
    store.write(os);
    return os.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "txrace_store_test_" + name;
}

} // namespace

TEST(FindingsStore, RoundTripsByteExactly)
{
    FindingsStore store = storeWith(
        {outcome(0, "raytrace", 11, {"raytrace\x1dp1"}),
         outcome(1, "canneal", 12, {"canneal\x1dp2"})});
    const std::string bytes = bytesOf(store);

    FindingsStore back;
    std::string error;
    ASSERT_TRUE(FindingsStore::parse(bytes, back, error)) << error;
    EXPECT_EQ(bytesOf(back), bytes);
    EXPECT_TRUE(sameCampaignIdentity(back.campaign, store.campaign));
}

TEST(FindingsStore, MergeCommutesByteExactly)
{
    // Two hosts partition the job-id space and find overlapping races.
    FindingsStore a = storeWith(
        {outcome(0, "raytrace", 11, {"raytrace\x1dp1"}),
         outcome(2, "raytrace", 13, {"raytrace\x1dp3"})});
    FindingsStore b = storeWith(
        {outcome(1, "raytrace", 12, {"raytrace\x1dp1"}),
         outcome(3, "canneal", 14, {"canneal\x1dp2"})});

    FindingsStore ab = a, ba = b;
    std::string error;
    ASSERT_TRUE(ab.merge(b, error)) << error;
    ASSERT_TRUE(ba.merge(a, error)) << error;
    EXPECT_EQ(bytesOf(ab), bytesOf(ba));
}

TEST(FindingsStore, RefusesToMergeDifferentCampaigns)
{
    FindingsStore a = storeWith({outcome(0, "raytrace", 1, {})});
    FindingsStore b = storeWith({outcome(1, "raytrace", 2, {})});
    b.campaign.masterSeed = 99;
    std::string error;
    EXPECT_FALSE(a.merge(b, error));
    EXPECT_NE(error.find("different"), std::string::npos);
    EXPECT_NE(error.find("99"), std::string::npos);
}

TEST(FindingsStore, WrongVersionIsAStructuredError)
{
    std::string bytes = bytesOf(storeWith({}));
    size_t at = bytes.find("txrace-findings-v1");
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, 18, "txrace-findings-v9");

    FindingsStore out;
    std::string error;
    EXPECT_FALSE(FindingsStore::parse(bytes, out, error));
    EXPECT_NE(error.find("$.schema"), std::string::npos) << error;
    EXPECT_NE(error.find("txrace-findings-v9"), std::string::npos)
        << error;
    EXPECT_NE(error.find("expected \"txrace-findings-v1\""),
              std::string::npos)
        << error;
}

TEST(FindingsStore, OutOfRangeIdentityCountsAreRefused)
{
    // A worker count past 2^32-1 used to load truncated (2^32+2 as 2).
    const std::string bytes = bytesOf(storeWith({}));
    const size_t at = bytes.find("\"workers\": 4");
    ASSERT_NE(at, std::string::npos) << bytes;
    FindingsStore out;
    std::string error;
    for (const char *bad : {"4294967298", "-4", "4.5", "\"4\""}) {
        std::string text = bytes;
        text.replace(at + 11, 1, bad);
        EXPECT_FALSE(FindingsStore::parse(text, out, error)) << bad;
        EXPECT_NE(error.find("campaign identity: workers must be an "
                             "integer in [0, 4294967295]"),
                  std::string::npos)
            << error;
    }
}

TEST(FindingsStore, MissingSchemaNamesThePath)
{
    FindingsStore out;
    std::string error;
    EXPECT_FALSE(FindingsStore::parse("{\"x\": 1}", out, error));
    EXPECT_NE(error.find("$.schema: missing"), std::string::npos)
        << error;
}

TEST(FindingsStore, TruncatedInputNeverCrashes)
{
    const std::string bytes = bytesOf(storeWith(
        {outcome(0, "raytrace", 11, {"raytrace\x1dp1"})}));
    // Every strict prefix (short of the closing brace) must fail
    // cleanly — a parse error, not a crash.
    for (size_t len = 0; len + 2 < bytes.size(); len += 7) {
        FindingsStore out;
        std::string error;
        EXPECT_FALSE(
            FindingsStore::parse(bytes.substr(0, len), out, error))
            << "prefix length " << len;
        EXPECT_FALSE(error.empty()) << "prefix length " << len;
    }
}

TEST(FindingsStore, CorruptFindingEntriesAreRejected)
{
    // A finding whose runs_seen is zero is internally inconsistent.
    std::string bytes = bytesOf(storeWith(
        {outcome(0, "raytrace", 11, {"raytrace\x1dp1"})}));
    size_t at = bytes.find("\"runs_seen\": 1");
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, 14, "\"runs_seen\": 0");
    FindingsStore out;
    std::string error;
    EXPECT_FALSE(FindingsStore::parse(bytes, out, error));
    EXPECT_FALSE(error.empty());
}

TEST(RaceSig, ReadRejectsHashKeyMismatch)
{
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    core::RaceSig s = sig("app\x1dp1");
    core::writeRaceSig(w, s);

    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::parseJson(os.str(), doc, error));
    core::RaceSig back;
    ASSERT_TRUE(core::readRaceSig(doc, back, error)) << error;
    EXPECT_EQ(back.key, s.key);

    // Tamper with the key: the stored hash no longer matches.
    std::string bytes = os.str();
    size_t at = bytes.find("p1");
    bytes.replace(at, 2, "p2");
    ASSERT_TRUE(telemetry::parseJson(bytes, doc, error));
    EXPECT_FALSE(core::readRaceSig(doc, back, error));
    EXPECT_NE(error.find("hash"), std::string::npos);
}

TEST(ProfileLoader, WrongVersionIsAStructuredError)
{
    telemetry::Profile out;
    std::string error;
    EXPECT_FALSE(telemetry::Profile::parse(
        "{\"schema\": \"txrace-profile-v0\", \"apps\": {}}", out,
        error));
    EXPECT_NE(error.find("$.schema"), std::string::npos) << error;
    EXPECT_NE(error.find("txrace-profile-v0"), std::string::npos)
        << error;
    EXPECT_FALSE(telemetry::Profile::parse("{\"apps\": {}}", out,
                                           error));
    EXPECT_NE(error.find("$.schema: missing"), std::string::npos)
        << error;
}

TEST(Checkpoint, RoundTripsByteExactly)
{
    Checkpoint ck;
    ck.campaign = identity();
    ck.nextId = 12;
    ck.roundsDone = 2;
    ck.jobsTotal = 12;
    ck.strategyName = "abort-guided";
    ck.strategyState = {{"round", 2}, {"probe_per_app", 1}};
    campaign::JobSpec spec;
    spec.id = 10;
    spec.round = 2;
    spec.run.name = "raytrace";
    spec.run.seed = 77;
    spec.variant = "reseed";
    ck.plan.push_back(spec);
    campaign::JobOutcome o =
        outcome(3, "raytrace", 31, {"raytrace\x1dp1"});
    o.abortConflict = 4;
    ck.history.push_back(OutcomeSummary::of(o));
    ck.spoolFirstId = {{"batch-000.ndjson", 0}};
    ck.aggregate.add(o);

    std::ostringstream os;
    ck.write(os);
    Checkpoint back;
    std::string error;
    ASSERT_TRUE(Checkpoint::parse(os.str(), back, error)) << error;
    std::ostringstream os2;
    back.write(os2);
    EXPECT_EQ(os2.str(), os.str());
    EXPECT_EQ(back.nextId, 12u);
    EXPECT_EQ(back.strategyState.at("round"), 2u);
    ASSERT_EQ(back.plan.size(), 1u);
    EXPECT_EQ(back.plan[0].variant, "reseed");
    ASSERT_EQ(back.history.size(), 1u);
    EXPECT_EQ(back.history[0].abortConflict, 4u);
    EXPECT_EQ(back.spoolFirstId.at("batch-000.ndjson"), 0u);
}

TEST(Checkpoint, WrongVersionAndTruncationAreCleanErrors)
{
    Checkpoint ck;
    ck.campaign = identity();
    std::ostringstream os;
    ck.write(os);
    std::string bytes = os.str();

    std::string wrong = bytes;
    size_t at = wrong.find("txrace-checkpoint-v1");
    wrong.replace(at, 20, "txrace-checkpoint-v2");
    Checkpoint out;
    std::string error;
    EXPECT_FALSE(Checkpoint::parse(wrong, out, error));
    EXPECT_NE(error.find("$.schema"), std::string::npos) << error;

    for (size_t len = 0; len + 2 < bytes.size(); len += 13) {
        EXPECT_FALSE(Checkpoint::parse(bytes.substr(0, len), out,
                                       error))
            << "prefix length " << len;
    }
}

TEST(Checkpoint, SummaryRoundTripKeepsStrategyVisibleFields)
{
    campaign::JobOutcome o =
        outcome(5, "canneal", 55, {"canneal\x1dp1"});
    o.spec.variant = "irq-x4";
    o.spec.run.irqScale = 4.0;
    o.spec.run.governor = true;
    o.ok = false;
    o.abortConflict = 9;
    OutcomeSummary s = OutcomeSummary::of(o);
    campaign::JobOutcome back = s.toOutcome();
    EXPECT_EQ(back.spec.id, 5u);
    EXPECT_EQ(back.spec.run.name, "canneal");
    EXPECT_EQ(back.spec.variant, "irq-x4");
    EXPECT_DOUBLE_EQ(back.spec.run.irqScale, 4.0);
    EXPECT_TRUE(back.spec.run.governor);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.abortConflict, 9u);
}

TEST(AtomicFile, WritesAreAllOrNothing)
{
    const std::string path = tempPath("atomic.json");
    std::string error;
    ASSERT_TRUE(writeFileAtomic(path, "first", error)) << error;
    ASSERT_TRUE(writeFileAtomic(path, "second", error)) << error;
    std::string content;
    ASSERT_TRUE(readFile(path, content, error)) << error;
    EXPECT_EQ(content, "second");
    // No tmp litter left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::remove(path.c_str());

    EXPECT_FALSE(readFile(tempPath("absent.json"), content, error));
    EXPECT_FALSE(error.empty());
}

TEST(Ingest, JobLineDefaultsComeFromTheCampaign)
{
    campaign::CampaignConfig cfg = identity();
    cfg.workers = 6;
    cfg.scale = 3;
    campaign::JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseJobLine("{\"app\": \"raytrace\"}", cfg, spec,
                             error))
        << error;
    EXPECT_EQ(spec.run.name, "raytrace");
    EXPECT_EQ(spec.run.workers, 6u);
    EXPECT_EQ(spec.run.scale, 3u);
    EXPECT_EQ(spec.variant, "base");
    EXPECT_EQ(spec.run.mode, cfg.mode);

    ASSERT_TRUE(parseJobLine(
        "{\"app\": \"vips\", \"seed\": 9, \"variant\": \"irq-x4\", "
        "\"irq_scale\": 4.0, \"workers\": 2, \"governor\": true}",
        cfg, spec, error))
        << error;
    EXPECT_EQ(spec.run.seed, 9u);
    EXPECT_EQ(spec.variant, "irq-x4");
    EXPECT_DOUBLE_EQ(spec.run.irqScale, 4.0);
    EXPECT_EQ(spec.run.workers, 2u);
    EXPECT_TRUE(spec.run.governor);
}

TEST(Ingest, BadLinesReportTheLineNumber)
{
    campaign::CampaignConfig cfg = identity();
    std::vector<campaign::JobSpec> specs;
    std::string error;
    EXPECT_EQ(parseJobBatch(
                  "{\"app\": \"raytrace\"}\n{\"seed\": 3}\n", cfg,
                  specs, error),
              1u);
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;

    EXPECT_EQ(parseJobBatch("{\"app\": \"raytrace\"}\nnot json\n",
                            cfg, specs, error),
              1u);
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(Ingest, RecordsTheRegistryCannotBuildAreRefused)
{
    // An unknown app, one or nine workers and scale 0 are refused with
    // the registry's reason, a negative irq_scale with --irq-scale's,
    // and a malformed number or bool by its key; the good lines around
    // them still parse.
    campaign::CampaignConfig cfg = identity();
    std::vector<campaign::JobSpec> specs;
    std::string error;
    EXPECT_EQ(parseJobBatch("{\"app\": \"nosuch\"}\n"
                            "{\"app\": \"raytrace\", \"seed\": 2}\n"
                            "{\"app\": \"raytrace\", \"workers\": 1}\n"
                            "{\"app\": \"vips\", \"scale\": 0}\n"
                            "{\"app\": \"raytrace\", \"seed\": 3, "
                            "\"irq_scale\": -2}\n"
                            "{\"app\": \"raytrace\", \"seed\": 3, "
                            "\"workers\": 4294967298}\n"
                            "{\"app\": \"raytrace\", \"seed\": -3}\n"
                            "{\"app\": \"raytrace\", \"seed\": \"7\"}\n"
                            "{\"app\": \"raytrace\", \"seed\": 1.5}\n"
                            "{\"app\": \"raytrace\", \"governor\": \"yes\"}\n"
                            "{\"app\": \"raytrace\", \"workers\": 9}\n",
                            cfg, specs, error),
              10u);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].run.seed, 2u);
    for (const char *why :
         {"line 1: unknown workload 'nosuch'",
          "line 3: need at least two workers",
          "line 4: scale must be at least 1",
          "line 5: irq_scale must not be negative",
          "line 6: workers must be an integer in [0, 4294967295]",
          "line 7: seed must be an integer in [0, 18446744073709551615]",
          "line 8: seed must be", "line 9: seed must be",
          "line 10: governor must be true or false",
          "line 11: need at most 8 workers"})
        EXPECT_NE(error.find(why), std::string::npos) << error;
}

TEST(Ingest, EveryStrategyJobRoundTripsThroughRecordAndRepro)
{
    // Record -> identity -> repro line -> identity, for every job the
    // three strategies emit (perturb's irq-x4, irq-x16, oversub and
    // oversub-gov included), in a sampling campaign too.
    std::set<std::string> variants;
    size_t jobs = 0;
    for (core::RunMode mode :
         {core::RunMode::TxRaceDynLoopcut, core::RunMode::TSanSampling}) {
        for (const std::string &name : campaign::strategyNames()) {
            campaign::CampaignConfig cfg = identity();
            cfg.mode = mode;
            cfg.strategy = name;
            std::unique_ptr<campaign::Strategy> strategy =
                campaign::makeStrategy(name);
            Checkpoint ck;
            ck.campaign = cfg;
            std::vector<campaign::JobOutcome> history;
            uint64_t nextId = 0;
            for (;;) {
                std::vector<campaign::JobSpec> round =
                    strategy->nextRound(cfg, history, nextId);
                if (round.empty())
                    break;
                for (const campaign::JobSpec &spec : round) {
                    campaign::JobOutcome o;
                    o.spec = spec;
                    o.abortConflict = spec.id % 3;
                    history.push_back(o);
                    ck.plan.push_back(spec);
                }
            }
            std::ostringstream os;
            ck.write(os);
            Checkpoint back;
            std::string error;
            ASSERT_TRUE(Checkpoint::parse(os.str(), back, error)) << error;
            ASSERT_EQ(back.plan.size(), ck.plan.size());
            for (size_t i = 0; i < ck.plan.size(); ++i) {
                const core::RunIdentity &run = back.plan[i].run;
                EXPECT_TRUE(run == ck.plan[i].run) << i;
                EXPECT_FALSE(core::identityError(run));
                // Outside sampling the rate is inert and the line
                // omits it, so it reads back as the CLI's default.
                core::RunIdentity want = run;
                if (mode != core::RunMode::TSanSampling)
                    want.sampleRate = core::RunIdentity{}.sampleRate;
                const std::string line = core::reproCommand(run);
                EXPECT_TRUE(parseLine(line) == want) << line;
                variants.insert(back.plan[i].variant);
                ++jobs;
            }
        }
    }
    // sweep 4 + abort-guided 4 + perturb 5 variants x 4, per mode.
    EXPECT_EQ(jobs, 2u * (4u + 4u + 20u));
    EXPECT_EQ(variants,
              (std::set<std::string>{"base", "reseed", "irq-x4", "irq-x16",
                                     "oversub", "oversub-gov"}));
}

TEST(Ingest, NegativeCorpusIsRefusedAsRecordAndAsIdentity)
{
    const campaign::CampaignConfig cfg = identity();
    campaign::JobSpec spec;
    std::string error;
    // Malformed values: no identity field can hold them.
    for (const char *line :
         {R"({"app": "raytrace", "seed": 3, "workers": 4294967298})",
          R"({"app": "raytrace", "seed": -3})",
          R"({"app": "raytrace", "seed": "7"})",
          R"({"app": "raytrace", "seed": 1.5})",
          R"({"app": "raytrace", "scale": 1e3})",
          R"({"app": "raytrace", "id": -1})",
          R"({"app": "raytrace", "round": 4294967296})",
          R"({"app": "raytrace", "irq_scale": "4"})",
          R"({"app": "raytrace", "governor": "yes"})"})
        EXPECT_FALSE(parseJobLine(line, cfg, spec, error)) << line;
    // Runs no front end may start, as a record and as an identity.
    const std::pair<const char *, std::function<void(core::RunIdentity &)>>
        refused[] = {
            {R"({"app": "nosuch"})",
             [](core::RunIdentity &r) { r.name = "nosuch"; }},
            {R"({"app": "raytrace", "workers": 1})",
             [](core::RunIdentity &r) { r.workers = 1; }},
            {R"({"app": "raytrace", "workers": 9})",
             [](core::RunIdentity &r) { r.workers = 9; }},
            {R"({"app": "raytrace", "scale": 0})",
             [](core::RunIdentity &r) { r.scale = 0; }},
            {R"({"app": "raytrace", "irq_scale": -2})",
             [](core::RunIdentity &r) { r.irqScale = -2.0; }},
        };
    for (const auto &[line, set] : refused) {
        EXPECT_FALSE(parseJobLine(line, cfg, spec, error)) << line;
        core::RunIdentity run = campaign::baseIdentity(cfg);
        run.name = "raytrace";
        EXPECT_FALSE(core::identityError(run));
        set(run);
        EXPECT_TRUE(core::identityError(run)) << line;
    }
}

TEST(Ingest, SpoolListingIsSortedAndSkipsTempFiles)
{
    namespace fs = std::filesystem;
    const std::string dir = tempPath("spool");
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(dir + "/b.ndjson") << "{}";
    std::ofstream(dir + "/a.ndjson") << "{}";
    std::ofstream(dir + "/c.ndjson.tmp") << "{}";
    std::vector<std::string> files = listSpoolFiles(dir);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], "a.ndjson");
    EXPECT_EQ(files[1], "b.ndjson");
    fs::remove_all(dir);

    EXPECT_TRUE(listSpoolFiles(tempPath("no_such_dir")).empty());
}
