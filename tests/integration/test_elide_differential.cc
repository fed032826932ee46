/**
 * @file
 * Behavioral soundness oracles for the static elision passes, which
 * `txrace_run --no-elide` disables. Every
 * registry workload (the Table-1 application models and the
 * monitor's apache-stream soak, with their planted ground-truth
 * races, plus the concurrency-pattern catalog) runs across ten seeds
 * under both conflict repairs (the default winner replay and the
 * pure TxFail protocol, RunConfig::slowpath): the
 * static passes decide what the slow path checks, so each repair is
 * its own consumer of the elided bits.
 *
 * Three oracles, each pinning a different half of the contract:
 *
 *  - ElideDifferential: per-run byte identity. The elide-off build
 *    runs with the elide-on build's region marks copied onto it by
 *    position (the bare-region pass is the one pass that changes how
 *    a region executes), so both builds take the same schedule and
 *    the per-run race-fingerprint sets, step counts and conflict
 *    aborts must match exactly. Schedule identity is the early
 *    warning that a pass started perturbing execution instead of just
 *    skipping checks.
 *  - BareRegionDifferential: the end-to-end contract through
 *    runProgram. Running a region without a transaction changes the
 *    schedule (no aborts, no TxFail demotions), so per-run race sets
 *    may differ; every run must stay precise and above the recall
 *    floor, and the race union over the ten seeds must hold the
 *    `--no-elide` union. Anything only the elided build found must
 *    be a planted initialization-idiom pair (§8.3), the class overlap
 *    detection catches or misses by schedule luck; for every other
 *    race the two unions are equal.
 *  - TSanEndpointOracle: no endpoint of a race TSan reports may be an
 *    access the TxRace pipeline elided. This checks the pre-spawn,
 *    never-written, thread-disjointness and lockset rules in every
 *    execution, not only in the slow-path episodes where their bits
 *    are read.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "core/policies.hh"
#include "sim/machine.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

constexpr uint64_t kSeeds = 10;

constexpr std::pair<core::SlowPathKind, const char *> kSlowPaths[] = {
    {core::SlowPathKind::Replay, "replay"},
    {core::SlowPathKind::TxFail, "txfail"},
};

/** Every registry workload: the Table-1 apps and apache-stream. */
std::vector<std::string>
allApps()
{
    std::vector<std::string> names = workloads::appNames();
    names.emplace_back("apache-stream");
    return names;
}

/** gtest parameter names cannot hold '-' or ' '. */
std::string
paramName(std::string name)
{
    for (char &c : name)
        if (c == '-' || c == ' ')
            c = '_';
    return name;
}

/** The lowest per-run recall perfbench accepts: the paper's known
 *  misses (§8.3) — bodytrack's and facesim's initialization-idiom
 *  races and a schedule-sensitive share of vips' boundary set. */
double
recallFloor(const std::string &app)
{
    if (app == "bodytrack")
        return 6.0 / 8.0;
    if (app == "facesim")
        return 8.0 / 9.0;
    if (app == "vips")
        return 0.5;
    return 1.0;
}

core::RunConfig
elideOn(const sim::MachineConfig &machine, uint64_t seed,
        core::SlowPathKind slowpath,
        core::RunMode mode = core::RunMode::TxRaceDynLoopcut)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine = machine;
    cfg.machine.seed = seed;
    cfg.slowpath = slowpath;
    return cfg;
}

/** @p cfg as `--no-elide` builds it. */
core::RunConfig
elideOff(core::RunConfig cfg)
{
    cfg.passes.elide.enabled = false;
    return cfg;
}

/** What one run reported, keyed against the uninstrumented program
 *  (instruction ids survive the pipeline). */
struct Outcome
{
    /** Race key → its ground-truth label. */
    std::map<std::string, std::string> keys;
    std::set<std::string> labels;
    uint64_t steps = 0;
    uint64_t conflictAborts = 0;
};

Outcome
outcomeOf(const ir::Program &prog, const detector::RaceSet &races,
          const StatSet &stats)
{
    Outcome out;
    for (const auto &[sig, race] : core::fingerprintedRaces(prog, races)) {
        out.keys.emplace(sig.key, sig.label);
        out.labels.insert(sig.label);
    }
    out.steps = stats.get("machine.steps");
    out.conflictAborts = stats.get("tx.abort.conflict");
    return out;
}

/** Copy every TxBegin's region mark of @p from onto the
 *  position-for-position identical build @p to. */
void
copyRegionMarks(const ir::Program &from, ir::Program &to)
{
    ASSERT_EQ(from.numFunctions(), to.numFunctions());
    for (ir::FuncId f = 0; f < from.numFunctions(); ++f) {
        const auto &src = from.function(f).body;
        auto &dst = to.function(f).body;
        ASSERT_EQ(src.size(), dst.size()) << from.function(f).name;
        for (size_t pc = 0; pc < src.size(); ++pc) {
            ASSERT_EQ(src[pc].op, dst[pc].op)
                << from.function(f).name << ":" << pc;
            if (src[pc].op == ir::OpCode::TxBegin)
                dst[pc].arg1 = src[pc].arg1;
        }
    }
}

/** Run the prepared TxRace build @p prepared under @p cfg the way
 *  runProgram runs TxRace-DynLoopcut. */
Outcome
runPrepared(const ir::Program &prog, const ir::Program &prepared,
            const core::RunConfig &cfg)
{
    core::TxRacePolicy policy(cfg);
    sim::Machine machine(prepared, cfg.machine, policy);
    EXPECT_TRUE(machine.run().ok());
    StatSet stats;
    machine.tel().registry.exportTo(stats);
    return outcomeOf(prog, machine.det().races(), stats);
}

/** Run @p prog elide-on and elide-off on one seed, both builds
 *  carrying the elide-on region marks, and assert the observable
 *  race behavior is identical. Returns the elide-on outcome. */
Outcome
assertSharedMarkIdentical(const ir::Program &prog,
                          const sim::MachineConfig &machine,
                          uint64_t seed, core::SlowPathKind slowpath,
                          const std::string &what)
{
    core::RunConfig on = elideOn(machine, seed, slowpath);
    core::RunConfig off = elideOff(on);
    ir::Program pon = passes::preparedForTxRace(prog, on.passes);
    ir::Program poff = passes::preparedForTxRace(prog, off.passes);
    copyRegionMarks(pon, poff);

    Outcome ron = runPrepared(prog, pon, on);
    Outcome roff = runPrepared(prog, poff, off);
    EXPECT_EQ(ron.keys, roff.keys)
        << what << " seed " << seed
        << ": elision changed the reported races";
    EXPECT_EQ(ron.steps, roff.steps) << what << " seed " << seed;
    EXPECT_EQ(ron.conflictAborts, roff.conflictAborts)
        << what << " seed " << seed;
    return ron;
}

/** The label keys of @p labels; only the initialization-idiom ones
 *  when @p init_idiom_only. */
std::set<std::string>
truthOf(const std::vector<workloads::RaceLabel> &labels,
        bool init_idiom_only = false)
{
    std::set<std::string> truth;
    for (const workloads::RaceLabel &label : labels)
        if (label.initIdiom || !init_idiom_only)
            truth.insert(core::raceLabelKey(label.a, label.b));
    return truth;
}

/** The end-to-end differential over ten seeds of one slow path, in
 *  perfbench's `table1` lane (ProfLoopcut): every run precise,
 *  elide-on runs at or above the recall floor, the elide-on race
 *  union holds the `--no-elide` one, and what only the elide-on
 *  union holds is planted initialization-idiom pairs. Adds the
 *  elide-on union's labels to @p labels_on. */
void
assertUnionCoversNoElide(const ir::Program &prog,
                         const sim::MachineConfig &machine,
                         const std::vector<workloads::RaceLabel> &labels,
                         double floor, core::SlowPathKind slowpath,
                         const std::string &what,
                         std::set<std::string> &labels_on)
{
    const std::set<std::string> truth = truthOf(labels);
    const std::set<std::string> init_idiom = truthOf(labels, true);
    std::map<std::string, std::string> union_on, union_off;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        core::RunConfig on = elideOn(machine, seed, slowpath,
                                     core::RunMode::TxRaceProfLoopcut);
        core::RunResult ron = core::runProgram(prog, on);
        core::RunResult roff = core::runProgram(prog, elideOff(on));
        ASSERT_TRUE(ron.error.ok()) << what << " seed " << seed;
        ASSERT_TRUE(roff.error.ok()) << what << " seed " << seed;
        Outcome oon = outcomeOf(prog, ron.races, ron.stats);
        Outcome ooff = outcomeOf(prog, roff.races, roff.stats);
        for (const std::string &label : oon.labels)
            EXPECT_TRUE(truth.count(label))
                << what << " seed " << seed << ": unplanted " << label;
        for (const std::string &label : ooff.labels)
            EXPECT_TRUE(truth.count(label))
                << what << " seed " << seed << " (--no-elide): unplanted "
                << label;
        EXPECT_GE(static_cast<double>(oon.labels.size()),
                  floor * static_cast<double>(truth.size()) - 1e-9)
            << what << " seed " << seed << ": recall below the floor";
        union_on.insert(oon.keys.begin(), oon.keys.end());
        union_off.insert(ooff.keys.begin(), ooff.keys.end());
    }
    for (const auto &[key, label] : union_off)
        EXPECT_TRUE(union_on.count(key))
            << what << ": elision lost the race " << key;
    for (const auto &[key, label] : union_on) {
        labels_on.insert(label);
        EXPECT_TRUE(union_off.count(key) || init_idiom.count(label))
            << what << ": only the elided build found " << key
            << ", which is no initialization-idiom pair";
    }
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
    const std::set<std::string> truth = truthOf(app.groundTruth);

    for (const auto &[slowpath, mode] : kSlowPaths) {
        const std::string what = app.name + " (" + mode + ")";
        // Per-seed identity implies equal label coverage; campaign
        // recall is computed from it, so pin precision on it too:
        // everything reported maps onto a planted race.
        std::set<std::string> labels;
        for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
            Outcome o = assertSharedMarkIdentical(
                app.program, app.machine, seed, slowpath, what);
            labels.insert(o.labels.begin(), o.labels.end());
        }
        for (const std::string &label : labels)
            EXPECT_TRUE(truth.count(label))
                << what << ": unplanted race " << label;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ElideDifferentialPerApp, ::testing::ValuesIn(allApps()),
    [](const auto &info) { return paramName(info.param); });

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
            assertSharedMarkIdentical(pat.program, machine, seed,
                                      slowpath,
                                      pat.name + " (" + mode + ")");
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ElideDifferentialPerPattern,
    ::testing::ValuesIn(workloads::patternNames()),
    [](const auto &info) { return paramName(info.param); });

class BareRegionDifferentialPerApp
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BareRegionDifferentialPerApp, RaceUnionMatchesNoElide)
{
    workloads::WorkloadParams params;
    params.calibrate = false;
    // perfbench's scale: its recall floor is a statement about runs
    // long enough for every planted race to recur.
    params.scale = 16;
    workloads::AppModel app = workloads::makeApp(GetParam(), params);
    for (const auto &[slowpath, mode] : kSlowPaths) {
        const std::string what = app.name + " (" + mode + ")";
        std::set<std::string> labels_on;
        assertUnionCoversNoElide(app.program, app.machine,
                                 app.groundTruth, recallFloor(app.name),
                                 slowpath, what, labels_on);
        // facesim's mesh runs bare, and the schedule that leaves
        // catches its initialization-idiom pair on some seeds: pin
        // that the relaxed oracle above is exercised.
        if (app.name == "facesim") {
            EXPECT_TRUE(labels_on.count(core::raceLabelKey(
                "init-idiom write 0", "init-idiom late read 0")))
                << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BareRegionDifferentialPerApp,
    ::testing::ValuesIn(allApps()),
    [](const auto &info) { return paramName(info.param); });

class BareRegionDifferentialPerPattern
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BareRegionDifferentialPerPattern, RaceUnionMatchesNoElide)
{
    // Patterns carry no recall floor: overlap-based detection misses
    // some of them by design (the catalog's Expectation column).
    workloads::Pattern pat = workloads::makePattern(GetParam());
    std::set<std::string> labels_on;
    for (const auto &[slowpath, mode] : kSlowPaths)
        assertUnionCoversNoElide(pat.program, sim::MachineConfig{},
                                 pat.groundTruth, 0.0, slowpath,
                                 pat.name + " (" + mode + ")", labels_on);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BareRegionDifferentialPerPattern,
    ::testing::ValuesIn(workloads::patternNames()),
    [](const auto &info) { return paramName(info.param); });

class TSanEndpointOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TSanEndpointOracle, NoRaceEndpointIsElidedOutright)
{
    workloads::WorkloadParams params;
    params.calibrate = false;
    workloads::AppModel app = workloads::makeApp(GetParam(), params);
    const ir::Program prepared = passes::preparedForTxRace(app.program);
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TSan;
        cfg.machine = app.machine;
        cfg.machine.seed = seed;
        core::RunResult tsan = core::runProgram(app.program, cfg);
        for (const detector::Race &race : tsan.races.all()) {
            for (ir::InstrId id : {race.first, race.second}) {
                const ir::Instruction &ins = prepared.instr(id);
                EXPECT_TRUE(ir::isMemAccess(ins.op))
                    << app.name << " seed " << seed << ": id " << id;
                EXPECT_TRUE(ins.instrumented)
                    << app.name << " seed " << seed << ": endpoint '"
                    << ins.tag << "' (id " << id << ") was elided";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TSanEndpointOracle, ::testing::ValuesIn(allApps()),
    [](const auto &info) { return paramName(info.param); });
