/**
 * @file
 * Tests of the campaign aggregator: dedup semantics, first-seen
 * attribution, ground-truth scoring, and the delivery contract the
 * service relies on — add() idempotent on job id, the new-finding
 * delta feed, state round trips, and merge() of job-partitioned
 * states matching one fold in any order. All pure logic — outcomes
 * are hand-built, no Machine runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "campaign/aggregate.hh"
#include "core/fingerprint.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"

using namespace txrace;
using namespace txrace::campaign;

namespace {

core::RaceSig
sig(const std::string &key, uint64_t hash,
    const std::string &label = "")
{
    core::RaceSig s;
    s.hash = hash;
    s.key = key;
    s.label = label.empty() ? key : label;
    s.a = "a:" + key;
    s.b = "b:" + key;
    return s;
}

/** A signature whose hash is the key's real fingerprint. */
core::RaceSig
sig(const std::string &key)
{
    return sig(key, core::fnv1a64(key));
}

JobOutcome
outcome(uint64_t jobId, const std::string &app, uint64_t seed,
        std::vector<FoundRace> races,
        const std::string &variant = "base")
{
    JobOutcome o;
    o.spec.id = jobId;
    o.spec.app = app;
    o.spec.seed = seed;
    o.spec.variant = variant;
    o.repro = "txrace_run --app " + app;
    o.configDigest = 0xd1600 + jobId;
    o.races = std::move(races);
    return o;
}

FoundRace
race(const core::RaceSig &s, uint64_t hits = 1)
{
    FoundRace f;
    f.sig = s;
    f.hits = hits;
    return f;
}

CampaignConfig
cfgFor(std::vector<std::string> apps)
{
    CampaignConfig cfg;
    cfg.apps = std::move(apps);
    return cfg;
}

/** A spread of outcomes whose races interleave: several jobs per
 *  key, a key shared by every other job, nonzero job counters. */
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
        JobOutcome o = outcome(id, "app", 1000 + id, races);
        o.txCommitted = 10 + id;
        o.abortConflict = id % 3;
        out.push_back(std::move(o));
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

TEST(Aggregator, DedupsByKeyAcrossRuns)
{
    Aggregator agg;
    core::RaceSig r = sig("app\x1dpair1", 111);
    agg.add(outcome(0, "app", 1, {race(r, 2)}));
    agg.add(outcome(1, "app", 2, {race(r, 3)}));

    CampaignResult result = agg.finalize(cfgFor({"app"}), {});
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].runsSeen, 2u);
    EXPECT_EQ(result.findings[0].totalHits, 5u);
    EXPECT_EQ(result.rawReports, 2u);
    EXPECT_DOUBLE_EQ(result.dedupRatio, 2.0);
}

TEST(Aggregator, HashCollisionStaysTwoFindings)
{
    // Same 64-bit hash, different keys: the aggregator must keep
    // them apart — dedup is by full key, the hash is cosmetic.
    Aggregator agg;
    agg.add(outcome(0, "app", 1,
                    {race(sig("app\x1dpairA", 42)),
                     race(sig("app\x1dpairB", 42))}));

    CampaignResult result = agg.finalize(cfgFor({"app"}), {});
    ASSERT_EQ(result.findings.size(), 2u);
    EXPECT_EQ(result.findings[0].sig.hash,
              result.findings[1].sig.hash);
    EXPECT_NE(result.findings[0].sig.key,
              result.findings[1].sig.key);
    // Equal hashes: the key must break the sort tie deterministically.
    EXPECT_LT(result.findings[0].sig.key, result.findings[1].sig.key);
}

TEST(Aggregator, FirstSeenIsLowestJobIdNotArrivalOrder)
{
    core::RaceSig r = sig("app\x1dpair1", 7);
    std::vector<JobOutcome> outcomes;
    for (uint64_t id : {5u, 2u, 9u, 0u, 3u})
        outcomes.push_back(
            outcome(id, "app", 100 + id, {race(r)}, "v" +
                    std::to_string(id)));

    // Every arrival order must agree on first-seen metadata.
    std::sort(outcomes.begin(), outcomes.end(),
              [](const JobOutcome &a, const JobOutcome &b) {
                  return a.spec.id < b.spec.id;
              });
    do {
        Aggregator agg;
        for (const JobOutcome &o : outcomes)
            agg.add(o);
        CampaignResult result = agg.finalize(cfgFor({"app"}), {});
        ASSERT_EQ(result.findings.size(), 1u);
        EXPECT_EQ(result.findings[0].firstJob, 0u);
        EXPECT_EQ(result.findings[0].firstSeed, 100u);
        EXPECT_EQ(result.findings[0].firstVariant, "v0");
        EXPECT_EQ(result.findings[0].firstConfigDigest,
                  uint64_t(0xd1600));
    } while (std::next_permutation(
        outcomes.begin(), outcomes.end(),
        [](const JobOutcome &a, const JobOutcome &b) {
            return a.spec.id < b.spec.id;
        }));
}

TEST(Aggregator, FindingsSortedByFingerprint)
{
    Aggregator agg;
    agg.add(outcome(0, "app", 1,
                    {race(sig("app\x1dz", 900)),
                     race(sig("app\x1d" "a", 100)),
                     race(sig("app\x1dm", 500))}));
    CampaignResult result = agg.finalize(cfgFor({"app"}), {});
    ASSERT_EQ(result.findings.size(), 3u);
    EXPECT_LT(result.findings[0].sig.hash, result.findings[1].sig.hash);
    EXPECT_LT(result.findings[1].sig.hash, result.findings[2].sig.hash);
}

TEST(Aggregator, PrecisionRecallAgainstGroundTruth)
{
    Aggregator agg;
    // Two true races found, one false positive, one annotation missed.
    agg.add(outcome(0, "app", 1,
                    {race(sig("app\x1dtrue1", 1, "L1")),
                     race(sig("app\x1dtrue2", 2, "L2")),
                     race(sig("app\x1d" "bogus", 3, "LX"))}));
    std::map<std::string, std::set<std::string>> gt;
    gt["app"] = {"L1", "L2", "L3"};

    CampaignResult result = agg.finalize(cfgFor({"app"}), gt);
    ASSERT_EQ(result.scores.size(), 1u);
    const AppScore &s = result.scores[0];
    EXPECT_EQ(s.expected, 3u);
    EXPECT_EQ(s.found, 3u);
    EXPECT_EQ(s.matched, 2u);
    EXPECT_EQ(s.falsePositives, 1u);
    EXPECT_DOUBLE_EQ(s.precision, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(s.recall, 2.0 / 3.0);
    EXPECT_EQ(result.stats.get("campaign.gt_matched"), 2u);
    EXPECT_EQ(result.stats.get("campaign.false_positives"), 1u);
}

TEST(Aggregator, AppWithNoRunsScoresZeroRecall)
{
    Aggregator agg;
    std::map<std::string, std::set<std::string>> gt;
    gt["quiet"] = {"L1"};
    CampaignResult result = agg.finalize(cfgFor({"quiet"}), gt);
    ASSERT_EQ(result.scores.size(), 1u);
    EXPECT_EQ(result.scores[0].found, 0u);
    EXPECT_DOUBLE_EQ(result.scores[0].recall, 0.0);
    // Nothing reported, nothing wrong: precision stays 1.0.
    EXPECT_DOUBLE_EQ(result.scores[0].precision, 1.0);
}

TEST(Aggregator, VariantYieldAttributesFirstFinder)
{
    core::RaceSig r1 = sig("app\x1dpair1", 1);
    core::RaceSig r2 = sig("app\x1dpair2", 2);
    Aggregator agg;
    agg.add(outcome(0, "app", 1, {race(r1)}, "base"));
    agg.add(outcome(1, "app", 2, {race(r1), race(r2)}, "irq-x4"));
    CampaignResult result = agg.finalize(cfgFor({"app"}), {});

    ASSERT_EQ(result.variants.size(), 2u);
    uint64_t baseFirst = 0, irqFirst = 0;
    for (const VariantYield &vy : result.variants) {
        if (vy.variant == "base")
            baseFirst = vy.firstFound;
        else if (vy.variant == "irq-x4")
            irqFirst = vy.firstFound;
    }
    EXPECT_EQ(baseFirst, 1u);  // r1: first seen by job 0 (base)
    EXPECT_EQ(irqFirst, 1u);   // r2: only the perturbed run saw it
}

TEST(Aggregator, ErrorsAndAbortTotalsAccumulate)
{
    Aggregator agg;
    JobOutcome bad = outcome(0, "app", 1, {});
    bad.ok = false;
    bad.error = "deadlock";
    bad.abortConflict = 5;
    agg.add(bad);
    JobOutcome good = outcome(1, "app", 2, {});
    good.txCommitted = 10;
    good.abortConflict = 2;
    agg.add(good);

    CampaignResult result = agg.finalize(cfgFor({"app"}), {});
    EXPECT_EQ(result.runs, 2u);
    EXPECT_EQ(result.errors, 1u);
    EXPECT_EQ(result.txCommitted, 10u);
    EXPECT_EQ(result.abortConflict, 7u);
    EXPECT_EQ(result.stats.get("campaign.errors"), 1u);
}

TEST(Aggregator, DuplicateAddChangesNothing)
{
    Aggregator agg;
    std::vector<JobOutcome> outcomes = mixedOutcomes();
    for (const JobOutcome &o : outcomes)
        ASSERT_TRUE(agg.add(o));
    const std::string before = stateBytes(agg);
    const uint64_t runs = agg.runs();

    // At-least-once delivery: every outcome redelivered, same bytes.
    for (const JobOutcome &o : outcomes)
        EXPECT_FALSE(agg.add(o));
    EXPECT_EQ(stateBytes(agg), before);
    EXPECT_EQ(agg.runs(), runs);
}

TEST(Aggregator, SeenTracksFoldedJobIds)
{
    Aggregator agg;
    EXPECT_FALSE(agg.seen(5));
    agg.add(outcome(5, "app", 1, {}));
    EXPECT_TRUE(agg.seen(5));
    EXPECT_FALSE(agg.seen(6));
}

TEST(Aggregator, NewFindingsReportedExactlyOnce)
{
    Aggregator agg;
    std::vector<const FoundRace *> fresh;
    JobOutcome first = outcome(
        0, "app", 1, {race(sig("app\x1dx")), race(sig("app\x1dy"))});
    agg.add(first, &fresh);
    ASSERT_EQ(fresh.size(), 2u);
    EXPECT_EQ(fresh[0], &first.races[0]);
    EXPECT_EQ(fresh[1], &first.races[1]);

    fresh.clear();
    // Same races from another job: already-known, no deltas.
    agg.add(outcome(1, "app", 2,
                    {race(sig("app\x1dx")), race(sig("app\x1dy"))}),
            &fresh);
    EXPECT_TRUE(fresh.empty());

    // Over a whole stream (and a redelivery of it), each key is
    // reported once, by the first outcome that carries it.
    Aggregator stream;
    std::map<std::string, uint64_t> reported;
    for (int pass = 0; pass < 2; ++pass) {
        for (const JobOutcome &o : mixedOutcomes()) {
            fresh.clear();
            stream.add(o, &fresh);
            for (const FoundRace *r : fresh)
                ++reported[r->sig.key];
        }
    }
    EXPECT_EQ(reported.size(), stream.findingCount());
    for (const auto &[key, count] : reported)
        EXPECT_EQ(count, 1u) << key;
}

TEST(Aggregator, LoadStateRestoresDuplicateDetectionAndBytes)
{
    std::vector<JobOutcome> outcomes = mixedOutcomes();
    const size_t half = outcomes.size() / 2;
    Aggregator base;
    for (size_t i = 0; i < half; ++i)
        base.add(outcomes[i]);

    // The resume path: a checkpointed half-fold, parsed back.
    telemetry::JsonValue doc;
    std::string error;
    ASSERT_TRUE(telemetry::parseJson(stateBytes(base), doc, error))
        << error;
    Aggregator resumed;
    ASSERT_TRUE(resumed.loadState(doc, error)) << error;
    // The first half was already folded before the checkpoint.
    for (size_t i = 0; i < half; ++i)
        EXPECT_FALSE(resumed.add(outcomes[i]));
    for (size_t i = half; i < outcomes.size(); ++i)
        EXPECT_TRUE(resumed.add(outcomes[i]));

    Aggregator full;
    for (const JobOutcome &o : outcomes)
        full.add(o);
    EXPECT_EQ(stateBytes(resumed), stateBytes(full));
}

TEST(Aggregator, JobPartitionedMergeInAnyOrderMatchesOneFold)
{
    // The cross-host union: hosts fold disjoint job sets, and the
    // merged store must not depend on how jobs were split or on the
    // order the parts are merged.
    Aggregator single;
    for (const JobOutcome &o : mixedOutcomes())
        single.add(o);
    const std::string want = stateBytes(single);

    for (size_t n : {2u, 4u, 16u}) {
        std::vector<Aggregator> parts(n);
        for (const JobOutcome &o : mixedOutcomes())
            parts[o.spec.id % n].add(o);

        std::vector<std::vector<size_t>> orders;
        std::vector<size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        if (n <= 4) {
            do
                orders.push_back(order);
            while (std::next_permutation(order.begin(), order.end()));
        } else {
            // 16! orders are out of reach: every rotation, both ways.
            for (size_t r = 0; r < n; ++r) {
                std::rotate(order.begin(), order.begin() + 1,
                            order.end());
                orders.push_back(order);
                orders.emplace_back(order.rbegin(), order.rend());
            }
        }
        for (const std::vector<size_t> &o : orders) {
            Aggregator total;
            for (size_t i : o)
                total.merge(parts[i]);
            EXPECT_EQ(stateBytes(total), want) << n << " parts";
        }
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
