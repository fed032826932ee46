/**
 * @file
 * Unit tests for race fingerprints and reproduction metadata: the
 * identities every campaign decision keys on.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <sstream>

#include "core/fingerprint.hh"
#include "core/repro.hh"
#include "ir/builder.hh"

using namespace txrace;
using namespace txrace::ir;

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

Program
taggedProgram()
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(x), "reader site");
    b.store(AddrExpr::absolute(x), "writer site");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace

TEST(Fingerprint, OrderIndependent)
{
    Program p = taggedProgram();
    detector::Race ab{0, 1, detector::RaceKind::ReadWrite, 0x40, 1};
    detector::Race ba{1, 0, detector::RaceKind::ReadWrite, 0x40, 1};
    core::RaceSig sa = core::raceSig(p, ab);
    core::RaceSig sb = core::raceSig(p, ba);
    EXPECT_EQ(sa.hash, sb.hash);
    EXPECT_EQ(sa.key, sb.key);
    EXPECT_EQ(sa.label, sb.label);
    EXPECT_EQ(sa.a, sb.a);
    EXPECT_EQ(sa.b, sb.b);
}

TEST(Fingerprint, ScopeSeparatesApps)
{
    Program p = taggedProgram();
    detector::Race race{0, 1, detector::RaceKind::ReadWrite, 0x40, 1};
    core::RaceSig vips = core::raceSig(p, race, "vips");
    core::RaceSig facesim = core::raceSig(p, race, "facesim");
    EXPECT_NE(vips.hash, facesim.hash);
    EXPECT_NE(vips.key, facesim.key);
    // The label (ground-truth matching key) is scope-free: each app
    // scores against its own annotation table anyway.
    EXPECT_EQ(vips.label, facesim.label);
}

TEST(Fingerprint, SelfRaceHasEqualEndpoints)
{
    Program p = taggedProgram();
    detector::Race race{1, 1, detector::RaceKind::WriteWrite, 0x40, 1};
    core::RaceSig sig = core::raceSig(p, race);
    EXPECT_EQ(sig.a, sig.b);
    EXPECT_EQ(sig.label,
              core::raceLabelKey("writer site", "writer site"));
}

TEST(Fingerprint, LabelMatchesRaceLabelKey)
{
    Program p = taggedProgram();
    detector::Race race{0, 1, detector::RaceKind::ReadWrite, 0x40, 1};
    core::RaceSig sig = core::raceSig(p, race);
    EXPECT_EQ(sig.label,
              core::raceLabelKey("reader site", "writer site"));
    // And label keys are themselves symmetric.
    EXPECT_EQ(core::raceLabelKey("reader site", "writer site"),
              core::raceLabelKey("writer site", "reader site"));
}

TEST(Fingerprint, FingerprintedRacesSorted)
{
    Program p = taggedProgram();
    detector::RaceSet races;
    races.record(0, 1, detector::RaceKind::ReadWrite, 0x40);
    races.record(1, 1, detector::RaceKind::WriteWrite, 0x40);
    auto sorted = core::fingerprintedRaces(p, races);
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_LE(sorted[0].first.hash, sorted[1].first.hash);
}

TEST(Repro, DigestStableAndSeedSensitive)
{
    core::RunConfig a;
    core::RunConfig b;
    EXPECT_EQ(core::configDigest(a), core::configDigest(b));
    b.machine.seed ^= 1;
    EXPECT_NE(core::configDigest(a), core::configDigest(b));
}

TEST(Repro, DigestSeesEverySettableValue)
{
    // One row per settable value in the RunConfig tree: perturbing it
    // alone must move the digest, or two different runs would share
    // one identity. A new field needs a row here.
    struct Row
    {
        const char *name;
        std::function<void(core::RunConfig &)> perturb;
        /** The mode of the base config; sampleRate is hashed only
         *  under TSanSampling. */
        core::RunMode mode = core::RunMode::TxRaceProfLoopcut;
    };
    using C = core::RunConfig &;
    const Row rows[] = {
        {"mode", [](C c) { c.mode = core::RunMode::TxRaceNoOpt; }},
        {"sampleRate", [](C c) { c.sampleRate = 0.5; },
         core::RunMode::TSanSampling},
        {"slowpath", [](C c) { c.slowpath = core::SlowPathKind::TxFail; }},
        {"machine.seed", [](C c) { c.machine.seed = 2; }},
        {"machine.interruptPerStep",
         [](C c) { c.machine.interruptPerStep *= 2.0; }},
        {"machine.maxSteps", [](C c) { c.machine.maxSteps = 1000; }},
        {"machine.faults.name", [](C c) { c.machine.faults.name = "x"; }},
        {"machine.faults.episodes",
         [](C c) { c.machine.faults.add(fault::FaultEpisode{}); }},
        {"episode.kind",
         [](C c) {
             c.machine.faults.episodes[0].kind =
                 fault::FaultKind::RetryGlitch;
         }},
        {"episode.start",
         [](C c) { c.machine.faults.episodes[0].start = 7; }},
        {"episode.duration",
         [](C c) { c.machine.faults.episodes[0].duration = 7; }},
        {"episode.magnitude",
         [](C c) { c.machine.faults.episodes[0].magnitude = 2.0; }},
        {"episode.addProb",
         [](C c) { c.machine.faults.episodes[0].addProb = 0.5; }},
        {"episode.param",
         [](C c) { c.machine.faults.episodes[0].param = 7; }},
        {"machine.cost.fastHookCost",
         [](C c) { c.machine.cost.fastHookCost = 1; }},
        {"machine.cost.checkScale",
         [](C c) { c.machine.cost.checkScale = 2.0; }},
        {"machine.htm.l1Sets", [](C c) { c.machine.htm.l1Sets = 32; }},
        {"machine.htm.l1Ways", [](C c) { c.machine.htm.l1Ways = 4; }},
        {"machine.htm.readSetMaxLines",
         [](C c) { c.machine.htm.readSetMaxLines = 64; }},
        {"machine.htm.maxConcurrentTx",
         [](C c) { c.machine.htm.maxConcurrentTx = 4; }},
        {"machine.htm.capacityJitter",
         [](C c) { c.machine.htm.capacityJitter = 0.5; }},
        {"machine.det.maxShadowCells",
         [](C c) { c.machine.det.maxShadowCells = 2; }},
        {"passes.insertLoopCuts",
         [](C c) { c.passes.insertLoopCuts = false; }},
        {"passes.elide.enabled",
         [](C c) { c.passes.elide.enabled = false; }},
        {"governor.enabled", [](C c) { c.governor.enabled = true; }},
        {"budget.enabled", [](C c) { c.budget.enabled = true; }},
        {"budget.budgetPct", [](C c) { c.budget.budgetPct = 3.0; }},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        core::RunConfig base;
        base.mode = row.mode;
        base.machine.faults.add(fault::FaultEpisode{});
        core::RunConfig changed = base;
        row.perturb(changed);
        EXPECT_NE(core::configDigest(changed), core::configDigest(base));
    }

    // Observe-only switches are not part of the run's identity.
    core::RunConfig base;
    core::RunConfig observed = base;
    observed.machine.recordTimeline = true;
    observed.machine.recordFlight = true;
    EXPECT_EQ(core::configDigest(observed), core::configDigest(base));
}

TEST(Repro, SampleRateInertOutsideSampling)
{
    // Front ends default sampleRate differently; the digest must not
    // disagree when the field cannot affect the run.
    core::RunConfig a;
    core::RunConfig b;
    a.sampleRate = 1.0;
    b.sampleRate = 0.5;
    EXPECT_EQ(core::configDigest(a), core::configDigest(b));
    a.mode = b.mode = core::RunMode::TSanSampling;
    EXPECT_NE(core::configDigest(a), core::configDigest(b));
}

TEST(Repro, CommandRendersEveryKnob)
{
    core::RunIdentity id;
    id.name = "vips";
    id.mode = core::RunMode::TxRaceDynLoopcut;
    id.workers = 8;
    id.scale = 2;
    id.seed = 42;
    id.fault = "interrupt-storm";
    id.faultHorizon = 5000;
    id.governor = true;
    id.irqScale = 4.0;
    id.calibrated = false;
    EXPECT_EQ(core::reproCommand(id),
              "txrace_run --app vips --mode txrace-dyn --workers 8 "
              "--scale 2 --seed 42 --fault interrupt-storm "
              "--fault-horizon 5000 --governor --irq-scale 4 "
              "--no-calibrate");
}

TEST(Repro, CommandDefaultsAreMinimal)
{
    core::RunIdentity id;
    id.name = "raytrace";
    id.seed = 7;
    EXPECT_EQ(core::reproCommand(id),
              "txrace_run --app raytrace --mode txrace --workers 4 "
              "--scale 1 --seed 7");
}

TEST(Repro, CommandParsesBackToItsIdentityAndDigest)
{
    // Every mode x each run flag on or off x doubles that a six-digit
    // rendering would round: the printed line reads back as the
    // identity it came from, and both build the same config.
    const double awkward[] = {0.1234567, 3.3333333, 1e-3, 0.3};
    const std::pair<core::RunTarget, const char *> targets[] = {
        {core::RunTarget::App, "vips"},
        {core::RunTarget::Pattern, "unlocked-counter"},
        {core::RunTarget::ProgramFile,
         "examples/programs/unlocked_counter.txr"},
    };
    const sim::MachineConfig machine;
    size_t lines = 0;
    for (const auto &[target, name] : targets) {
        for (int m = 0; m <= int(core::RunMode::TxRaceProfLoopcut); ++m) {
            for (unsigned flags = 0; flags < 256; ++flags) {
                for (double x : awkward) {
                    auto on = [&](int bit) { return (flags >> bit & 1) != 0; };
                    core::RunIdentity id;
                    id.target = target;
                    id.name = name;
                    id.mode = core::RunMode(m);
                    id.seed = 3;
                    if (on(0) && id.mode == core::RunMode::TSanSampling)
                        id.sampleRate = x;
                    if (on(1)) {
                        id.fault = "interrupt-storm";
                        id.faultHorizon = 30000;
                    }
                    id.governor = on(2);
                    if (on(3) && core::isTxRaceMode(id.mode)) {
                        id.monitor = true;
                        id.budgetPct = x;
                    }
                    id.elide = !on(4);
                    if (on(5))
                        id.irqScale = x;
                    if (target == core::RunTarget::App) {
                        if (on(6)) {
                            id.workers = 8;
                            id.scale = 2;
                        }
                        id.calibrated = !on(7);
                    }
                    const std::string line = core::reproCommand(id);
                    const core::RunIdentity back =
                        parseLine(line);
                    ASSERT_TRUE(back == id) << line;
                    ASSERT_EQ(core::configDigest(
                                  core::runConfigFor(back, machine)),
                              core::configDigest(
                                  core::runConfigFor(id, machine)))
                        << line;
                    ++lines;
                }
            }
        }
    }
    EXPECT_EQ(lines, 3u * 8u * 256u * 4u);
}

TEST(Repro, CommandRendersDoublesExactly)
{
    core::RunIdentity id;
    id.name = "vips";
    id.mode = core::RunMode::TSanSampling;
    id.sampleRate = 0.3;
    id.irqScale = 0.1234567;
    EXPECT_EQ(core::reproCommand(id),
              "txrace_run --app vips --mode sampling --workers 4 "
              "--scale 1 --seed 1 --rate 0.3 --irq-scale 0.1234567");
}

TEST(Repro, ParseSeedList)
{
    EXPECT_EQ(core::parseSeedList("1"),
              (std::vector<uint64_t>{1}));
    EXPECT_EQ(core::parseSeedList("3,1,18446744073709551615"),
              (std::vector<uint64_t>{3, 1, 18446744073709551615ull}));
}

TEST(Repro, ParseUnsignedFlagTakesWholeDecimals)
{
    EXPECT_EQ(core::parseUnsignedFlag("--seed", "0"), 0u);
    EXPECT_EQ(core::parseUnsignedFlag("--seed", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(core::parseUnsignedFlag("--seeds", "1", 1), 1u);
    EXPECT_EQ(core::parseUnsignedFlag("--jobs", "4294967295", 0,
                                      UINT32_MAX),
              4294967295u);
}

TEST(Repro, ParseUnsignedFlagRejectsJunkSignsAndRange)
{
    using testing::ExitedWithCode;
    EXPECT_EXIT(core::parseUnsignedFlag("--seed", "foo"),
                ExitedWithCode(1), "--seed: expected an unsigned");
    EXPECT_EXIT(core::parseUnsignedFlag("--seed", ""), ExitedWithCode(1),
                "--seed: expected an unsigned");
    EXPECT_EXIT(core::parseUnsignedFlag("--scale", "3x"),
                ExitedWithCode(1), "--scale: expected an unsigned");
    EXPECT_EXIT(core::parseUnsignedFlag("--fault-horizon", "-1"),
                ExitedWithCode(1), "--fault-horizon: expected an unsigned");
    EXPECT_EXIT(core::parseUnsignedFlag("--seed", "+1"),
                ExitedWithCode(1), "--seed: expected an unsigned");
    EXPECT_EXIT(core::parseUnsignedFlag("--seed", " 1"),
                ExitedWithCode(1), "--seed: expected an unsigned");
    EXPECT_EXIT(core::parseUnsignedFlag("--seed", "18446744073709551616"),
                ExitedWithCode(1), "--seed: .* out of range");
    EXPECT_EXIT(core::parseUnsignedFlag("--seeds", "0", 1),
                ExitedWithCode(1), "--seeds: '0' is out of range");
    EXPECT_EXIT(core::parseUnsignedFlag("--jobs", "4294967296", 0,
                                        UINT32_MAX),
                ExitedWithCode(1), "--jobs: .* out of range");
}

TEST(Repro, ParseDoubleFlagTakesWholeNumbers)
{
    EXPECT_EQ(core::parseDoubleFlag("--budget-pct", "3"), 3.0);
    EXPECT_EQ(core::parseDoubleFlag("--irq-scale", "0.25"), 0.25);
    EXPECT_EQ(core::parseDoubleFlag("--irq-scale", "-5"), -5.0);
}

TEST(Repro, ParseDoubleFlagRejectsJunk)
{
    using testing::ExitedWithCode;
    EXPECT_EXIT(core::parseDoubleFlag("--budget-pct", "3x"),
                ExitedWithCode(1), "--budget-pct: expected a number");
    EXPECT_EXIT(core::parseDoubleFlag("--budget-pct", ""),
                ExitedWithCode(1), "--budget-pct: expected a number");
    EXPECT_EXIT(core::parseDoubleFlag("--rate", "nan"),
                ExitedWithCode(1), "--rate: 'nan' is out of range");
    EXPECT_EXIT(core::parseDoubleFlag("--rate", "1e999"),
                ExitedWithCode(1), "--rate: '1e999' is out of range");
}

TEST(Repro, ParseSeedListRejectsJunk)
{
    using testing::ExitedWithCode;
    EXPECT_EXIT(core::parseSeedList("1,,2"), ExitedWithCode(1),
                "--seed-list: expected an unsigned integer, got ''");
    EXPECT_EXIT(core::parseSeedList("1,x"), ExitedWithCode(1),
                "--seed-list: expected an unsigned integer, got 'x'");
    EXPECT_EXIT(core::parseSeedList("-3"), ExitedWithCode(1),
                "--seed-list: expected an unsigned integer");
}

TEST(Repro, GoldenConfigDigests)
{
    // Pinned values: every digest, every `# config 0x...` repro line
    // and every campaign identity must stay valid across refactors of
    // RunConfig. A change here means old repro commands stop matching.
    core::RunConfig def;
    EXPECT_EQ(core::configDigest(def), 0x84b781f2ce62b997ull);

    core::RunConfig gov;
    gov.governor.enabled = true;
    EXPECT_EQ(core::configDigest(gov), 0xbb19bd282fa91ee4ull);

    core::RunConfig mon;
    mon.governor.enabled = true;
    mon.budget.enabled = true;
    mon.budget.budgetPct = 5.0;
    EXPECT_EQ(core::configDigest(mon), 0x26f5db4e4fe5118full);

    core::RunConfig noopt;
    noopt.mode = core::RunMode::TxRaceNoOpt;
    EXPECT_EQ(core::configDigest(noopt), 0x484cc831febe2665ull);

    core::RunConfig region;
    region.slowpath = core::SlowPathKind::TxFail;
    EXPECT_EQ(core::configDigest(region), 0x66f3d1e921f30f6cull);

    // --no-elide, built as txrace_run builds it.
    core::RunConfig noelide;
    noelide.passes.elide.enabled = false;
    EXPECT_EQ(core::configDigest(noelide), 0x76daaf2f4202ef34ull);
}
