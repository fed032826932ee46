/**
 * @file
 * Behavioral soundness differential for the elision stack: every
 * registry workload (all application models with their planted
 * ground-truth races, plus the concurrency-pattern catalog) is run
 * with the full elision stack on and off — static elision, the HTM
 * owned-line filter, and the FastTrack same-epoch fast path, exactly
 * the set `txrace_run --no-elide` disables — across ten seeds each,
 * under both conflict repairs (`--slowpath window` and `region`):
 * the static passes decide what the slow path checks, so each repair
 * is its own consumer of the elided bits.
 *
 * The contract is byte-identical race-fingerprint sets per (workload,
 * seed): elision may change how much work finds a race, never which
 * races are found. Zero recall loss, zero new false positives — which
 * also pins campaign precision/recall, since campaigns score the same
 * fingerprint labels against the same ground truth. Schedule identity
 * (equal step counts) is asserted too: it is the mechanism that makes
 * the fingerprint equality hold per-seed rather than just in the
 * limit, and its failure is the early-warning signal that an elision
 * pass started perturbing execution instead of just skipping checks.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

constexpr uint64_t kSeeds = 10;

constexpr std::pair<core::SlowPathKind, const char *> kSlowPaths[] = {
    {core::SlowPathKind::Window, "window"},
    {core::SlowPathKind::Region, "region"},
};

std::set<std::string>
fingerprintKeys(const ir::Program &prog, const core::RunResult &r)
{
    std::set<std::string> keys;
    for (const auto &[sig, race] :
         core::fingerprintedRaces(prog, r.races))
        keys.insert(sig.key);
    return keys;
}

/** Run @p prog elide-on and elide-off on one seed and assert the
 *  observable race behavior is identical. Returns the common
 *  fingerprint key set. */
std::set<std::string>
assertSeedIdentical(const ir::Program &prog,
                    const sim::MachineConfig &machine, uint64_t seed,
                    core::SlowPathKind slowpath, const std::string &what)
{
    core::RunConfig on;
    on.mode = core::RunMode::TxRaceDynLoopcut;
    on.machine = machine;
    on.machine.seed = seed;
    on.slowpath = slowpath;

    core::RunConfig off = on;
    off.passes.elide.enabled = false;
    off.machine.htm.accessFilter = false;
    off.machine.det.epochFastPath = false;

    core::RunResult ron = core::runProgram(prog, on);
    core::RunResult roff = core::runProgram(prog, off);

    std::set<std::string> kon = fingerprintKeys(prog, ron);
    std::set<std::string> koff = fingerprintKeys(prog, roff);
    EXPECT_EQ(kon, koff) << what << " seed " << seed
                         << ": elision changed the reported races";
    // Schedule identity: the elided run takes exactly the same steps.
    EXPECT_EQ(ron.stats.get("machine.steps"),
              roff.stats.get("machine.steps"))
        << what << " seed " << seed;
    EXPECT_EQ(ron.stats.get("tx.abort.conflict"),
              roff.stats.get("tx.abort.conflict"))
        << what << " seed " << seed;
    return kon;
}

} // namespace

class ElideDifferentialPerApp
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ElideDifferentialPerApp, FingerprintSetsIdenticalAcrossSeeds)
{
    workloads::WorkloadParams params;
    params.calibrate = false;
    workloads::AppModel app = workloads::makeApp(GetParam(), params);

    std::set<std::string> truth;
    for (const workloads::RaceLabel &label : app.groundTruth)
        truth.insert(core::raceLabelKey(label.a, label.b));

    for (const auto &[slowpath, mode] : kSlowPaths) {
        const std::string what = app.name + " (" + mode + ")";
        // Ground-truth label coverage accumulated across seeds must
        // come out the same both ways; per-seed key equality implies
        // it, but this is the quantity campaign recall is computed
        // from, so pin it explicitly.
        std::set<std::string> labels_on, labels_off;
        for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
            core::RunConfig on;
            on.mode = core::RunMode::TxRaceDynLoopcut;
            on.machine = app.machine;
            on.machine.seed = seed;
            on.slowpath = slowpath;
            core::RunConfig off = on;
            off.passes.elide.enabled = false;
            off.machine.htm.accessFilter = false;
            off.machine.det.epochFastPath = false;

            core::RunResult ron = core::runProgram(app.program, on);
            core::RunResult roff = core::runProgram(app.program, off);
            EXPECT_EQ(fingerprintKeys(app.program, ron),
                      fingerprintKeys(app.program, roff))
                << what << " seed " << seed;
            EXPECT_EQ(ron.stats.get("machine.steps"),
                      roff.stats.get("machine.steps"))
                << what << " seed " << seed;
            for (const auto &[sig, race] :
                 core::fingerprintedRaces(app.program, ron.races))
                labels_on.insert(sig.label);
            for (const auto &[sig, race] :
                 core::fingerprintedRaces(app.program, roff.races))
                labels_off.insert(sig.label);
        }
        EXPECT_EQ(labels_on, labels_off) << what;

        // Precision is pinned as well: everything either variant
        // reports maps onto a planted ground-truth race.
        for (const std::string &label : labels_on)
            EXPECT_TRUE(truth.count(label))
                << what << ": unplanted race " << label;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ElideDifferentialPerApp,
    ::testing::ValuesIn(workloads::appNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

class ElideDifferentialPerPattern
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ElideDifferentialPerPattern, FingerprintSetsIdentical)
{
    workloads::Pattern pat = workloads::makePattern(GetParam());
    sim::MachineConfig machine;
    for (const auto &[slowpath, mode] : kSlowPaths)
        for (uint64_t seed = 1; seed <= kSeeds; ++seed)
            assertSeedIdentical(pat.program, machine, seed, slowpath,
                                pat.name + " (" + mode + ")");
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ElideDifferentialPerPattern,
    ::testing::ValuesIn(workloads::patternNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-' || c == ' ')
                c = '_';
        return name;
    });
