/**
 * @file
 * Sharded aggregation tests: collapse() must be byte-identical to the
 * single aggregator for any shard count and any shard-merge order,
 * add() must be idempotent on job id, and the resumable pieces
 * (aggregator state round-trip, strategy save/restore, pool early
 * stop) must reproduce exactly the state they saved.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/pool.hh"
#include "campaign/queue.hh"
#include "campaign/shard.hh"
#include "campaign/strategy.hh"
#include "core/fingerprint.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"

using namespace txrace;
using namespace txrace::campaign;

namespace {

core::RaceSig
sig(const std::string &key)
{
    core::RaceSig s;
    s.hash = core::fnv1a64(key);
    s.key = key;
    s.label = key;
    s.a = "a:" + key;
    s.b = "b:" + key;
    return s;
}

FoundRace
race(const core::RaceSig &s, uint64_t hits = 1)
{
    FoundRace f;
    f.sig = s;
    f.hits = hits;
    return f;
}

JobOutcome
outcome(uint64_t jobId, const std::string &app, uint64_t seed,
        std::vector<FoundRace> races)
{
    JobOutcome o;
    o.spec.id = jobId;
    o.spec.app = app;
    o.spec.seed = seed;
    o.repro = "txrace_run --app " + app;
    o.configDigest = 0xd1600 + jobId;
    o.races = std::move(races);
    o.txCommitted = 10 + jobId;
    o.abortConflict = jobId % 3;
    return o;
}

/** A spread of outcomes whose races collide and interleave across
 *  shards: several keys per hash bucket, several jobs per key. */
std::vector<JobOutcome>
mixedOutcomes()
{
    std::vector<JobOutcome> out;
    for (uint64_t id = 0; id < 24; ++id) {
        std::vector<FoundRace> races;
        races.push_back(race(
            sig("app\x1dpair" + std::to_string(id % 5)), 1 + id % 3));
        if (id % 2 == 0)
            races.push_back(race(sig("app\x1dshared"), 2));
        out.push_back(outcome(id, "app", 1000 + id, races));
    }
    return out;
}

std::string
stateBytes(const Aggregator &agg)
{
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    agg.writeState(w);
    return os.str();
}

} // namespace

TEST(ShardedAggregator, CollapseMatchesSingleAggregatorForAnyN)
{
    Aggregator single;
    for (const JobOutcome &o : mixedOutcomes())
        single.add(o);
    const std::string want = stateBytes(single);

    for (uint32_t n : {1u, 2u, 4u, 16u, 64u}) {
        ShardedAggregator sharded(n);
        for (const JobOutcome &o : mixedOutcomes())
            EXPECT_TRUE(sharded.add(o));
        EXPECT_EQ(stateBytes(sharded.collapse()), want)
            << n << " shards";
    }
}

TEST(ShardedAggregator, AnyShardMergeOrderYieldsIdenticalBytes)
{
    ShardedAggregator sharded(4);
    for (const JobOutcome &o : mixedOutcomes())
        sharded.add(o);

    std::vector<uint32_t> order(sharded.shardCount());
    std::iota(order.begin(), order.end(), 0);
    std::string want;
    do {
        Aggregator total;
        for (uint32_t i : order)
            total.merge(sharded.shard(i));
        std::string got = stateBytes(total);
        if (want.empty())
            want = got;
        EXPECT_EQ(got, want);
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(ShardedAggregator, DuplicateAddChangesNothing)
{
    ShardedAggregator sharded(4);
    std::vector<JobOutcome> outcomes = mixedOutcomes();
    for (const JobOutcome &o : outcomes)
        ASSERT_TRUE(sharded.add(o));
    const std::string before = stateBytes(sharded.collapse());
    const uint64_t runs = sharded.runs();

    // At-least-once delivery: every outcome redelivered, same bytes.
    for (const JobOutcome &o : outcomes)
        EXPECT_FALSE(sharded.add(o));
    EXPECT_EQ(stateBytes(sharded.collapse()), before);
    EXPECT_EQ(sharded.runs(), runs);
}

TEST(ShardedAggregator, SeenTracksFoldedJobIds)
{
    ShardedAggregator sharded(3);
    EXPECT_FALSE(sharded.seen(5));
    sharded.add(outcome(5, "app", 1, {}));
    EXPECT_TRUE(sharded.seen(5));
    EXPECT_FALSE(sharded.seen(6));
}

TEST(ShardedAggregator, NewFindingsReportedExactlyOnce)
{
    ShardedAggregator sharded(4);
    std::vector<const FoundRace *> fresh;
    JobOutcome first = outcome(
        0, "app", 1, {race(sig("app\x1dx")), race(sig("app\x1dy"))});
    sharded.add(first, &fresh);
    EXPECT_EQ(fresh.size(), 2u);

    fresh.clear();
    // Same races from another job: already-known, no deltas.
    sharded.add(outcome(1, "app", 2,
                        {race(sig("app\x1dx")), race(sig("app\x1dy"))}),
                &fresh);
    EXPECT_TRUE(fresh.empty());
}

TEST(ShardedAggregator, SeedRestoresDuplicateDetectionAndBytes)
{
    Aggregator base;
    std::vector<JobOutcome> outcomes = mixedOutcomes();
    for (size_t i = 0; i < outcomes.size() / 2; ++i)
        base.add(outcomes[i]);

    for (uint32_t n : {1u, 4u, 16u}) {
        ShardedAggregator sharded(n);
        sharded.seed(base);
        // The first half was already folded before the checkpoint.
        for (size_t i = 0; i < outcomes.size() / 2; ++i)
            EXPECT_FALSE(sharded.add(outcomes[i]));
        for (size_t i = outcomes.size() / 2; i < outcomes.size(); ++i)
            EXPECT_TRUE(sharded.add(outcomes[i]));

        Aggregator full;
        for (const JobOutcome &o : outcomes)
            full.add(o);
        EXPECT_EQ(stateBytes(sharded.collapse()), stateBytes(full))
            << n << " shards";
    }
}

TEST(Aggregator, StateRoundTripsByteExactly)
{
    Aggregator agg;
    for (const JobOutcome &o : mixedOutcomes())
        agg.add(o);
    const std::string bytes = stateBytes(agg);

    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::parseJson(bytes, doc, error)) << error;
    Aggregator restored;
    ASSERT_TRUE(restored.loadState(doc, error)) << error;
    EXPECT_EQ(stateBytes(restored), bytes);
}

TEST(Aggregator, MergeIsCommutativeOnFirstSightingTies)
{
    // Two halves that both saw the same race; the merged first-seen
    // metadata must not depend on merge direction.
    JobOutcome lo = outcome(3, "app", 30, {race(sig("app\x1dr"))});
    JobOutcome hi = outcome(8, "app", 80, {race(sig("app\x1dr"))});

    Aggregator a, b;
    a.add(lo);
    b.add(hi);
    Aggregator ab = a;
    ab.merge(b);
    Aggregator ba = b;
    ba.merge(a);
    EXPECT_EQ(stateBytes(ab), stateBytes(ba));
    CampaignConfig cfg;
    cfg.apps = {"app"};
    EXPECT_EQ(ab.finalize(cfg, {}).findings[0].firstJob, 3u);
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
            JobOutcome o = outcome(spec.id, spec.app, spec.seed, {});
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
            EXPECT_EQ(wantRound[i].app, gotRound[i].app) << name;
            EXPECT_EQ(wantRound[i].seed, gotRound[i].seed) << name;
            EXPECT_EQ(wantRound[i].variant, gotRound[i].variant)
                << name;
        }
    }
}

TEST(Pool, StopAndJoinAbandonsQueuedJobsButFinishesRunning)
{
    ResultQueue queue(64);
    WorkStealingPool pool(
        2,
        [](const JobSpec &spec, uint32_t) {
            JobOutcome o;
            o.spec = spec;
            return o;
        },
        queue);
    std::vector<JobSpec> jobs(100);
    for (size_t i = 0; i < jobs.size(); ++i)
        jobs[i].id = i;
    pool.submit(jobs);
    // A running worker may be blocked pushing into the full 64-slot
    // queue, so stopAndJoin() needs someone draining: join from a side
    // thread while this one drains (the pool's documented contract).
    std::thread joiner([&] {
        pool.stopAndJoin();
        pool.stopAndJoin();  // idempotent
        queue.close();
    });

    // Whatever was produced is a prefix-free subset of the 100 jobs;
    // each appears at most once and the queue is drainable.
    JobOutcome o;
    std::set<uint64_t> seen;
    size_t produced = 0;
    while (queue.pop(o)) {
        EXPECT_TRUE(seen.insert(o.spec.id).second);
        ++produced;
    }
    joiner.join();
    EXPECT_LE(produced, jobs.size());
}

TEST(CampaignE2E, ReportByteIdenticalAcrossShardCounts)
{
    CampaignConfig cfg;
    cfg.apps = {"raytrace", "canneal"};
    cfg.seedsPerApp = 2;
    cfg.masterSeed = 7;
    cfg.jobs = 4;
    std::string want;
    for (uint32_t shards : {1u, 4u, 16u}) {
        cfg.shards = shards;
        CampaignResult result = runCampaign(cfg);
        std::ostringstream os;
        writeCampaignJson(os, cfg, result);
        if (want.empty())
            want = os.str();
        EXPECT_EQ(os.str(), want) << shards << " shards";
    }
}
