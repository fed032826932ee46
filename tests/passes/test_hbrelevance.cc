/**
 * @file
 * Tests of the happens-before relevance analysis (passes::hbRelevance)
 * and of the TxRace runtime that tracks only the objects it keeps:
 * the registry's verdicts, the relays one object's edges take to a
 * check (lock, condvar, barrier, create, join), and a brute force over
 * random programs whose reports, with the rule and with every object
 * tracked, must match byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/policies.hh"
#include "core/report_format.hh"
#include "ir/builder.hh"
#include "passes/passes.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::ir;
using passes::HbRelevance;

namespace {

/** The rule's verdict on @p p's prepared build. */
HbRelevance
relevanceOf(const Program &p)
{
    return passes::hbRelevance(passes::preparedForTxRace(p), true);
}

/** An op on lock or condvar @p id (the opcode picks the kind). */
Instruction
syncOp(OpCode op, uint64_t id)
{
    Instruction ins;
    ins.op = op;
    ins.arg0 = id;
    return ins;
}

/** TxRace that tracks every lock and condvar: the reference the rule
 *  must reproduce exactly. */
class TrackEveryObject : public core::TxRacePolicy
{
  public:
    using TxRacePolicy::TxRacePolicy;

    void
    onRunStart(sim::Machine &m) override
    {
        TxRacePolicy::onRunStart(m);
        hb_.everyObject = true;
    }
};

/** What a run reports: its end, every race with its hit count, and
 *  the detector's counters. */
struct Outcome
{
    std::string report;
    detector::DetCounters det;
    uint64_t untracked = 0;
};

Outcome
runPrepared(const Program &prepared, const core::RunConfig &cfg,
            bool every_object)
{
    std::unique_ptr<core::TxRacePolicy> policy =
        every_object ? std::make_unique<TrackEveryObject>(cfg)
                     : std::make_unique<core::TxRacePolicy>(cfg);
    sim::Machine m(prepared, cfg.machine, *policy);
    const sim::RunError err = m.run();
    Outcome o;
    o.report = std::string(sim::runErrorKindName(err.kind)) + " after " +
               std::to_string(err.stepsExecuted) + " steps\n";
    for (const detector::Race &r : m.det().races().all())
        o.report += core::formatRace(prepared, r) + "hits " +
                    std::to_string(r.hits) + "\n";
    o.det = m.det().counters();
    const auto id = m.tel().registry.find("txrace.hb.untracked");
    if (id != telemetry::kNoMetric)
        o.untracked = m.tel().registry.value(id);
    return o;
}

void
expectSameDetector(const detector::DetCounters &a,
                   const detector::DetCounters &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.raceHits, b.raceHits);
    EXPECT_EQ(a.readEpochSufficient, b.readEpochSufficient);
    EXPECT_EQ(a.readVcPromoted, b.readVcPromoted);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.replayChecks, b.replayChecks);
}

/** A checked store: the syscall after it keeps its region small, so
 *  it always runs on the slow path and reaches the detector. */
void
checkedStore(ProgramBuilder &b, Addr a, const std::string &tag)
{
    b.store(AddrExpr::absolute(a), tag);
    b.syscall(1);
}

} // namespace

TEST(HbRelevance, RegistryPipelineSemaphoresAreUntracked)
{
    // ferret's rank and dedup's compress are the only functions left
    // with a checked access, and neither signals anything, so no edge
    // of their pipeline semaphores can order two checks.
    // fluidanimate's workers check and take all 16 stripe locks, so
    // every lock can; and a run that checks anything tracks every
    // barrier.
    workloads::WorkloadParams params;
    params.calibrate = false;
    uint64_t barriers = 0;
    for (const std::string &name : workloads::appNames()) {
        SCOPED_TRACE(name);
        const Program p = workloads::makeApp(name, params).program;
        const HbRelevance rel = relevanceOf(p);
        EXPECT_FALSE(rel.everyObject);
        for (FuncId f = 0; f < p.numFunctions(); ++f) {
            for (const Instruction &ins : p.function(f).body) {
                if (ins.op == OpCode::Barrier) {
                    EXPECT_EQ(rel.tracks(ins), rel.checks);
                    barriers += rel.checks;
                }
                if ((name == "ferret" || name == "dedup") &&
                    (ins.op == OpCode::CondSignal ||
                     ins.op == OpCode::CondWait)) {
                    EXPECT_FALSE(rel.tracks(ins));
                }
            }
        }
        if (name == "ferret" || name == "dedup") {
            EXPECT_TRUE(rel.checks);
            EXPECT_TRUE(rel.conds.empty());
        }
        if (name == "fluidanimate") {
            ASSERT_EQ(rel.locks.size(), 16u);
            for (uint64_t s = 0; s < 16; ++s)
                EXPECT_EQ(rel.locks[s], s);
        }
    }
    EXPECT_GT(barriers, 0u);
}

TEST(HbRelevance, WithoutTheRuleEveryObjectIsTracked)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId w = b.beginFunction("worker");
    b.lock(3);
    b.unlock(3);
    b.signal(4);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(w, 2);
    b.joinAll();
    checkedStore(b, x, "after join");
    b.endFunction();
    const Program p = passes::preparedForTxRace(b.build());

    const HbRelevance all = passes::hbRelevance(p, false);
    EXPECT_TRUE(all.checks);
    EXPECT_TRUE(all.tracks(syncOp(OpCode::LockAcquire, 3)));
    EXPECT_TRUE(all.tracks(syncOp(OpCode::CondWait, 4)));
    // With the rule: only main checks, and main runs in one thread,
    // so nothing the workers do can order two checks.
    const HbRelevance rel = passes::hbRelevance(p, true);
    EXPECT_TRUE(rel.checks);
    EXPECT_FALSE(rel.tracks(syncOp(OpCode::LockAcquire, 3)));
    EXPECT_FALSE(rel.tracks(syncOp(OpCode::CondWait, 4)));
    EXPECT_TRUE(rel.tracks(syncOp(OpCode::Barrier, 0)));
}

TEST(HbRelevance, NothingCheckedTracksNothing)
{
    ProgramBuilder b;
    Addr priv = b.allocPrivate("priv", 64);
    FuncId w = b.beginFunction("worker");
    b.lock(0);
    b.storePrivate(AddrExpr::absolute(priv));
    b.unlock(0);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(w, 2);
    b.joinAll();
    b.endFunction();
    const Program p = passes::preparedForTxRace(b.build());
    for (bool per_object : {false, true}) {
        const HbRelevance rel = passes::hbRelevance(p, per_object);
        EXPECT_FALSE(rel.checks);
        EXPECT_FALSE(rel.tracks(syncOp(OpCode::LockAcquire, 0)));
        EXPECT_FALSE(rel.tracks(syncOp(OpCode::Barrier, 0)));
    }
}

TEST(HbRelevance, LockBetweenTwoCheckingThreadsIsTracked)
{
    // The writer checks and releases; the reader acquires and checks.
    // A lock only an unchecked thread touches stays untracked, as does
    // a condvar the checked threads only wait on.
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId writer = b.beginFunction("writer");
    checkedStore(b, x, "w");
    b.lock(0);
    b.unlock(0);
    b.endFunction();
    FuncId reader = b.beginFunction("reader");
    b.wait(2);
    b.lock(0);
    b.unlock(0);
    checkedStore(b, x, "r");
    b.endFunction();
    FuncId idle = b.beginFunction("idle");
    b.lock(1);
    b.unlock(1);
    b.signal(2);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(writer);
    b.spawn(reader);
    b.spawn(idle);
    b.joinAll();
    b.endFunction();
    const HbRelevance rel = relevanceOf(b.build());
    EXPECT_EQ(rel.locks, std::vector<uint64_t>{0});
    EXPECT_TRUE(rel.conds.empty());
}

TEST(HbRelevance, JoinRelaysOnlyToWhatFollowsIt)
{
    // writer checks and posts condvar 5; relay waits on it and ends;
    // main joins relay. The condvar can order writer's store before
    // what main does after the join, and only then: a check, a send
    // (the post reader waits for before it checks), or, in a loop
    // around the join, one earlier in the loop body.
    enum After { Nothing, Check, Signal, LoopCheck, CheckBefore };
    for (After after : {Nothing, Check, Signal, LoopCheck, CheckBefore}) {
        SCOPED_TRACE(after);
        ProgramBuilder b;
        Addr x = b.alloc("x", 8);
        FuncId writer = b.beginFunction("writer");
        checkedStore(b, x, "w");
        b.signal(5);
        b.endFunction();
        FuncId relay = b.beginFunction("relay");
        b.wait(5);
        b.endFunction();
        FuncId reader = b.beginFunction("reader");
        b.wait(1);
        checkedStore(b, x, "r");
        b.endFunction();
        b.beginFunction("main");
        b.spawn(writer);
        b.spawn(relay);
        b.spawn(reader);
        switch (after) {
          case Nothing:
            b.join(1);
            break;
          case Check:
            b.join(1);
            checkedStore(b, x, "m");
            break;
          case Signal:
            b.join(1);
            b.signal(1);
            break;
          case LoopCheck:
            b.loop(2, [&] {
                checkedStore(b, x, "m");
                b.join(1);
            });
            break;
          case CheckBefore:
            checkedStore(b, x, "m");
            b.join(1);
            break;
        }
        b.endFunction();
        const HbRelevance rel = relevanceOf(b.build());
        const bool relays = after == Check || after == Signal ||
                            after == LoopCheck;
        EXPECT_EQ(rel.tracks(syncOp(OpCode::CondWait, 5)), relays);
    }
}

TEST(HbRelevance, BarrierAndCreateRelayToo)
{
    // writer checks, meets relay at barrier 7 and spawns spawned;
    // relay posts condvar 3 and spawned posts condvar 4, and reader
    // waits on both before it checks. Each condvar is reached from
    // writer's check only through the barrier or the create.
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId spawned = b.beginFunction("spawned");
    b.signal(4);
    b.endFunction();
    FuncId writer = b.beginFunction("writer");
    checkedStore(b, x, "w");
    b.barrier(7, 2);
    b.spawn(spawned);
    b.endFunction();
    FuncId relay = b.beginFunction("relay");
    b.barrier(7, 2);
    b.signal(3);
    b.endFunction();
    FuncId reader = b.beginFunction("reader");
    b.wait(3);
    b.wait(4);
    checkedStore(b, x, "r");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(writer);
    b.spawn(relay);
    b.spawn(reader);
    b.joinAll();
    b.endFunction();
    const HbRelevance rel = relevanceOf(b.build());
    EXPECT_EQ(rel.conds, (std::vector<uint64_t>{3, 4}));
}

namespace {

/** Shape counters of the brute force's random programs. */
struct GenStats
{
    uint64_t hops[5] = {};
    uint64_t loopJoins = 0;
    uint64_t createsAfterJoins = 0;
};

/** How one link of a relay chain passes the order on. */
enum class Hop { Lock, Cond, Barrier, Create, Join };

/**
 * A random program built around a relay chain: node 0 stores word x,
 * each hop passes its order on to the next node, and the last node
 * checks x. Every node but the ends keeps only private accesses,
 * so whether a lock or condvar hop is tracked turns on the relays
 * around it: lock and condvar hops (all unbanked, so a wait blocks
 * until its post), barriers, creates (a nested spawn) and joins,
 * some inside a loop whose earlier trip does the node's next send.
 * Around the chain, noise threads and noise ops in every node take
 * other locks, post and wait on a condvar a feeder banks, make
 * private accesses and checked accesses to a second word. main spawns
 * the chain's first joined node first, as spawn index 0, so a join
 * can name it.
 */
Program
randomProgram(Rng &rng, GenStats &gs)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8, 64);
    Addr y = b.alloc("y", 8, 64);
    Addr priv = b.allocPrivate("priv", 64);
    constexpr uint64_t kNoiseLocks = 2, kNoiseCond = 9, kFirstChainId = 10;

    // The hops: at most one join, never right after a create (the
    // joined node is main's first spawn), and no barrier or create
    // after a join inside a loop.
    const size_t nhops = 1 + rng.below(4);
    std::vector<Hop> hops;
    std::vector<bool> loop_join;
    bool joined = false;
    while (hops.size() < nhops) {
        Hop h = static_cast<Hop>(rng.below(5));
        if (h == Hop::Join &&
            (joined || (!hops.empty() && hops.back() == Hop::Create)))
            continue;
        if (!hops.empty() && loop_join.back() &&
            (h == Hop::Barrier || h == Hop::Create))
            continue;
        joined = joined || h == Hop::Join;
        hops.push_back(h);
        loop_join.push_back(h == Hop::Join && rng.below(2));
        ++gs.hops[static_cast<size_t>(h)];
        gs.loopJoins += loop_join.back();
        gs.createsAfterJoins += h == Hop::Create && hops.size() > 1 &&
                                hops[hops.size() - 2] == Hop::Join;
    }
    const size_t nodes = nhops + 1;
    const size_t noise_threads = rng.below(3);
    // Function ids: the chain's nodes 0..nodes-1, the noise threads,
    // the feeder, then main.
    const FuncId feeder = static_cast<FuncId>(nodes + noise_threads);

    auto noise = [&](bool checked_ok) {
        switch (rng.below(5)) {
          case 0: {
            const uint64_t l = rng.below(kNoiseLocks);
            b.lock(l);
            b.storePrivate(AddrExpr::absolute(priv + 8 * rng.below(8)));
            b.unlock(l);
            break;
          }
          case 1:
            b.signal(kNoiseCond);
            break;
          case 2:
            b.wait(kNoiseCond);
            break;
          case 3:
            if (checked_ok) {
                if (rng.below(2))
                    b.store(AddrExpr::absolute(y), "y");
                else
                    b.load(AddrExpr::absolute(y), "y");
                b.syscall(1);
                break;
            }
            [[fallthrough]];
          default:
            b.loadPrivate(AddrExpr::absolute(priv + 8 * rng.below(8)));
            b.syscall(1);
            break;
        }
    };
    auto some_noise = [&](bool checked_ok) {
        for (uint64_t k = 0, m = rng.below(3); k < m; ++k)
            noise(checked_ok);
    };

    for (size_t i = 0; i < nodes; ++i) {
        b.beginFunction("node" + std::to_string(i));
        // A middle node checks y now and then, which keeps the hops
        // around it tracked whatever the relays.
        const bool checked_ok = rng.below(4) == 0;
        some_noise(checked_ok);
        // Receive from the hop before.
        if (i > 0) {
            const uint64_t id = kFirstChainId + i - 1;
            switch (hops[i - 1]) {
              case Hop::Lock:
                b.lock(id);
                b.unlock(id);
                break;
              case Hop::Cond:
                b.wait(id);
                break;
              case Hop::Barrier:
                b.barrier(id, 2);
                break;
              case Hop::Create:
                break;  // the previous node spawns this one
              case Hop::Join:
                if (!loop_join[i - 1])
                    b.join(0);
                break;
            }
        } else {
            b.store(AddrExpr::absolute(x), "x write");
            b.syscall(1);
        }
        some_noise(checked_ok);
        // Send to the hop after, or check x at the chain's end; a
        // loop join does that first, so only its second trip passes
        // the order on.
        auto send = [&] {
            if (i + 1 == nodes) {
                b.load(AddrExpr::absolute(x), "x read");
                b.syscall(1);
                return;
            }
            const uint64_t id = kFirstChainId + i;
            switch (hops[i]) {
              case Hop::Lock:
                b.lock(id);
                b.unlock(id);
                break;
              case Hop::Cond:
                b.signal(id);
                break;
              case Hop::Barrier:
                b.barrier(id, 2);
                break;
              case Hop::Create:
                b.spawn(static_cast<FuncId>(i + 1));
                break;
              case Hop::Join:
                break;  // the next node joins this one
            }
        };
        if (i > 0 && loop_join[i - 1]) {
            b.loop(2, [&] {
                send();
                b.join(0);
            });
        } else {
            send();
        }
        some_noise(checked_ok);
        b.endFunction();
    }
    for (size_t k = 0; k < noise_threads; ++k) {
        b.beginFunction("noise" + std::to_string(k));
        for (uint64_t e = 0, m = 1 + rng.below(4); e < m; ++e)
            noise(true);
        b.endFunction();
    }
    b.beginFunction("feeder");
    b.loop(64, [&] { b.signal(kNoiseCond); });
    b.endFunction();

    b.beginFunction("main");
    // The joined node first (spawn index 0), then every node no
    // create spawns, the noise threads and the feeder.
    std::vector<FuncId> order;
    for (size_t i = 0; i < nodes; ++i)
        if (i == 0 || hops[i - 1] != Hop::Create)
            order.push_back(static_cast<FuncId>(i));
    for (size_t h = 0; h < nhops; ++h)
        if (hops[h] == Hop::Join)
            std::rotate(order.begin(),
                        std::find(order.begin(), order.end(), h),
                        std::find(order.begin(), order.end(), h) + 1);
    for (FuncId f : order)
        b.spawn(f);
    for (size_t k = 0; k < noise_threads; ++k)
        b.spawn(static_cast<FuncId>(nodes + k));
    b.spawn(feeder);
    some_noise(rng.below(4) == 0);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace

TEST(HbRelevance, RuleKeepsEveryReportOfRandomPrograms)
{
    // Each random program runs under the rule and with every lock and
    // condvar tracked, at several seeds. The schedule is step-driven,
    // so only virtual time may differ: the race reports, with their
    // dynamic hit counts, and the detector's counters must not.
    Rng rng(37);
    GenStats gs;
    uint64_t completed = 0, runs = 0, untracked = 0, untracked_runs = 0;
    uint64_t race_runs = 0;
    for (int round = 0; round < 500; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Program p = randomProgram(rng, gs);
        const Program prepared = passes::preparedForTxRace(p);
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            core::RunConfig cfg;
            cfg.mode = core::RunMode::TxRaceDynLoopcut;
            cfg.machine.seed = seed;
            cfg.machine.maxSteps = 200000;
            const Outcome rule = runPrepared(prepared, cfg, false);
            const Outcome every = runPrepared(prepared, cfg, true);
            EXPECT_EQ(rule.report, every.report);
            expectSameDetector(rule.det, every.det);
            EXPECT_LE(every.untracked, rule.untracked);
            ++runs;
            completed += rule.report.starts_with("none");
            untracked += rule.untracked;
            untracked_runs += rule.untracked > 0;
            race_runs += rule.det.raceHits > 0;
        }
        if (HasFailure())
            break;
    }
    // The programs exercise every relay, every run finishes, and the
    // rule leaves some ops untracked in many runs that find races.
    for (uint64_t n : gs.hops)
        EXPECT_GT(n, 0u);
    EXPECT_GT(gs.loopJoins, 0u);
    EXPECT_GT(gs.createsAfterJoins, 0u);
    EXPECT_EQ(completed, runs);
    EXPECT_GT(untracked_runs, runs / 10);
    EXPECT_GT(race_runs, runs / 4);
    EXPECT_GT(untracked, 0u);
}
