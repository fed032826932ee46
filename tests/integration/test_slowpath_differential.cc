/**
 * @file
 * Behavioral soundness differential for the winner replay: every
 * registry workload (all application models with their planted
 * ground-truth races, plus the concurrency-pattern catalog) is run
 * with the default slow path (the TxFail protocol, plus a replay of
 * the version-log window a conflict winner owes when it commits
 * before TxFail lands) and with the
 * paper's pure TxFail protocol, the region repair of §4.2
 * (SlowPathKind::TxFail), across ten seeds each.
 *
 * The replay charges the winner and checks more accesses, so
 * schedules and step counts legitimately diverge per seed, and a
 * single run of the default may find races the pure protocol misses
 * on that seed (it checks winners that commit before TxFail lands,
 * §6, false-negative source two). The contract is therefore on the
 * detection outcome over the seed sweep: the application models' and
 * the pattern catalog's unions must match exactly, precision stays
 * pinned to the planted ground truth, and a campaign hunting with the
 * default produces the same findings and precision/recall scores as
 * one hunting with the pure protocol.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "campaign/campaign.hh"
#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

constexpr uint64_t kSeeds = 10;

std::set<std::string>
fingerprintKeys(const ir::Program &prog, const core::RunResult &r)
{
    std::set<std::string> keys;
    for (const auto &[sig, race] :
         core::fingerprintedRaces(prog, r.races))
        keys.insert(sig.key);
    return keys;
}

/** Union of fingerprint keys over the seed sweep in one mode. */
std::set<std::string>
sweepKeys(const ir::Program &prog, const sim::MachineConfig &machine,
          core::SlowPathKind slowpath)
{
    std::set<std::string> keys;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceDynLoopcut;
        cfg.slowpath = slowpath;
        cfg.machine = machine;
        cfg.machine.seed = seed;
        core::RunResult r = core::runProgram(prog, cfg);
        keys.merge(fingerprintKeys(prog, r));
    }
    return keys;
}

} // namespace

class SlowpathDifferentialPerApp
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SlowpathDifferentialPerApp, SweepUnionEqualsTxFail)
{
    workloads::WorkloadParams params;
    params.calibrate = false;
    workloads::AppModel app = workloads::makeApp(GetParam(), params);

    std::set<std::string> replay =
        sweepKeys(app.program, app.machine, core::SlowPathKind::Replay);
    std::set<std::string> pure =
        sweepKeys(app.program, app.machine, core::SlowPathKind::TxFail);
    // Equal, not merely containing: the replay adds per-run recall
    // only, and the ten-seed sweep finds the rest either way.
    EXPECT_EQ(replay, pure) << app.name;

    // Precision is pinned too: everything the default reports maps
    // onto a planted ground-truth annotation, so the replay cannot
    // trade its recall for false positives.
    std::set<std::string> truth;
    for (const workloads::RaceLabel &label : app.groundTruth)
        truth.insert(core::raceLabelKey(label.a, label.b));
    core::RunConfig probe;
    probe.mode = core::RunMode::TxRaceDynLoopcut;
    probe.machine = app.machine;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        probe.machine.seed = seed;
        core::RunResult r = core::runProgram(app.program, probe);
        for (const auto &[sig, race] :
             core::fingerprintedRaces(app.program, r.races))
            EXPECT_TRUE(truth.count(sig.label))
                << app.name << ": unplanted race " << sig.label;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SlowpathDifferentialPerApp,
    ::testing::ValuesIn(workloads::appNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

class SlowpathDifferentialPerPattern
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SlowpathDifferentialPerPattern, SweepUnionEqualsTxFail)
{
    workloads::Pattern pat = workloads::makePattern(GetParam());
    sim::MachineConfig machine;
    EXPECT_EQ(
        sweepKeys(pat.program, machine, core::SlowPathKind::Replay),
        sweepKeys(pat.program, machine, core::SlowPathKind::TxFail))
        << pat.name;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SlowpathDifferentialPerPattern,
    ::testing::ValuesIn(workloads::patternNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-' || c == ' ')
                c = '_';
        return name;
    });

TEST(SlowpathDifferential, CampaignOutputMatchesTxFail)
{
    // The same hunt with the default and with the pure protocol:
    // identical findings (by fingerprint), identical ground-truth
    // verdicts, identical precision/recall scores. Per-run stats and
    // config digests legitimately differ (the digest covers the slow
    // path), so the comparison is struct-level, not byte-level.
    campaign::CampaignConfig cfg;
    cfg.apps = {"raytrace", "canneal"};
    cfg.seedsPerApp = 2;
    cfg.masterSeed = 7;

    campaign::CampaignResult replay = campaign::runCampaign(cfg);
    cfg.slowpath = core::SlowPathKind::TxFail;
    campaign::CampaignResult pure = campaign::runCampaign(cfg);

    ASSERT_EQ(replay.findings.size(), pure.findings.size());
    for (size_t i = 0; i < replay.findings.size(); ++i) {
        EXPECT_EQ(replay.findings[i].sig.key, pure.findings[i].sig.key);
        EXPECT_EQ(replay.findings[i].app, pure.findings[i].app);
        EXPECT_EQ(replay.findings[i].inGroundTruth,
                  pure.findings[i].inGroundTruth);
    }
    ASSERT_EQ(replay.scores.size(), pure.scores.size());
    for (size_t i = 0; i < replay.scores.size(); ++i) {
        EXPECT_EQ(replay.scores[i].app, pure.scores[i].app);
        EXPECT_EQ(replay.scores[i].matched, pure.scores[i].matched);
        EXPECT_DOUBLE_EQ(replay.scores[i].precision,
                         pure.scores[i].precision);
        EXPECT_DOUBLE_EQ(replay.scores[i].recall, pure.scores[i].recall);
    }
    EXPECT_EQ(replay.errors, 0u);
    EXPECT_EQ(pure.errors, 0u);
}
