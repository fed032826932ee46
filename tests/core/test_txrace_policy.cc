/**
 * @file
 * Behavioral tests of the TxRace two-phase runtime: the fast path,
 * every abort-dispatch rule of §4.2, the optimizations of §4.3, the
 * completeness guarantee, and each false-negative source of §6.
 */

#include <gtest/gtest.h>

#include "core/budget.hh"
#include "core/driver.hh"
#include "core/policies.hh"
#include "fault/fault.hh"
#include "ir/builder.hh"
#include "mem/layout.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::ir;

namespace {

core::RunConfig
txraceConfig(uint64_t seed = 1)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine.seed = seed;
    cfg.machine.interruptPerStep = 0.0;
    return cfg;
}

/** Six instrumented loads: enough to stay above the K threshold. */
void
pad(ProgramBuilder &b, Addr base)
{
    for (int i = 0; i < 6; ++i)
        b.load(AddrExpr::absolute(base + 8 * i), "pad");
}

/** A retry-glitch episode over the whole run: each transactional step
 *  takes a RETRY-only abort with probability @p rate. */
fault::FaultEpisode
retryGlitch(double rate)
{
    fault::FaultEpisode ep;
    ep.kind = fault::FaultKind::RetryGlitch;
    ep.duration = ~0ull >> 1;
    ep.addProb = rate;
    return ep;
}

/** main's stores to pad()'s words after it joins the workers: without
 *  a store that reaches them the never-written pass elides the pad
 *  loads, and a region left with nothing to check runs bare (no
 *  transaction). The join orders these stores after every load, so
 *  they race with nothing. A store before the first spawn would not
 *  do: it precedes every other thread, so the passes elide it. */
void
writePad(ProgramBuilder &b, Addr base)
{
    b.loop(6, [&] { b.store(AddrExpr::perIter(base, 8), "pad write"); });
}

} // namespace

TEST(TxRace, CleanRunCommitsEverything)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        pad(b, data);
        b.store(AddrExpr::perThread(data + 1024, 64), "own cell");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, txraceConfig());
    EXPECT_EQ(r.races.count(), 0u);
    EXPECT_EQ(r.stats.get("tx.abort.conflict"), 0u);
    EXPECT_EQ(r.stats.get("tx.abort.capacity"), 0u);
    EXPECT_EQ(r.stats.get("tx.abort.unknown"), 0u);
    EXPECT_GE(r.stats.get("tx.committed"), 30u);
    // No software checking happened at all.
    EXPECT_EQ(r.stats.get("detector.reads"), 0u);
    EXPECT_EQ(r.stats.get("detector.writes"), 0u);
}

TEST(TxRace, ConflictTriggersSlowPathAndPinpointsRace)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr racy = b.alloc("racy", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(racy), "unlocked store");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, txraceConfig());
    EXPECT_GE(r.stats.get("tx.abort.conflict"), 1u);
    EXPECT_GE(r.stats.get("txrace.txfail_writes"), 1u);
    ASSERT_EQ(r.races.count(), 1u);
    // The reported pair is the unlocked store against itself.
    detector::Race race = r.races.all()[0];
    EXPECT_EQ(race.first, race.second);
    EXPECT_EQ(p.instr(race.first).tag, "unlocked store");
}

TEST(TxRace, FalseSharingIsFilteredBySlowPath)
{
    // Per-thread slots packed in one cache line: the fast path must
    // conflict, the slow path must stay silent (completeness).
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr slots = b.alloc("slots", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        pad(b, data);
        b.store(AddrExpr::perThread(slots, 8), "own slot");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    // With elision on, the per-thread slot store is proven
    // thread-disjoint statically and never reaches the detector: the
    // false-sharing conflict is filtered at compile time.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        core::RunResult r = core::runProgram(p, txraceConfig(seed));
        EXPECT_GE(r.stats.get("tx.abort.conflict"), 1u);
        EXPECT_EQ(r.races.count(), 0u) << "seed " << seed;
        EXPECT_GT(r.stats.get("pass.elide.privatized"), 0u);
    }
    // With elision off, the slow path must check the accesses and
    // still stay silent (the original completeness guarantee).
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        core::RunConfig cfg = txraceConfig(seed);
        cfg.passes.elide.enabled = false;
        core::RunResult r = core::runProgram(p, cfg);
        EXPECT_GE(r.stats.get("tx.abort.conflict"), 1u);
        EXPECT_EQ(r.races.count(), 0u) << "seed " << seed;
        EXPECT_GT(r.stats.get("detector.writes"), 0u);
    }
}

TEST(TxRace, CapacityAbortFallsBackAlone)
{
    // Worker 1 overflows its write set; workers keep committing.
    // Capacity aborts must not write TxFail (no artificial aborts).
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr wide = b.alloc("wide", 16 * 4096 + 1024, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(6, [&] {
        pad(b, data);
        b.loop(12, [&] {
            AddrExpr e = AddrExpr::perThread(wide, 64);
            e.loopStride = 4096;  // same-set strided stores
            b.store(e, "stream");
        });
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.mode = core::RunMode::TxRaceNoOpt;  // no loop-cut rescue
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_GE(r.stats.get("tx.abort.capacity"), 6u);
    EXPECT_EQ(r.stats.get("txrace.artificial_aborts"), 0u);
    EXPECT_EQ(r.stats.get("txrace.txfail_writes"), 0u);
    EXPECT_EQ(r.races.count(), 0u);
}

TEST(TxRace, DynLoopcutEliminatesRepeatedCapacityAborts)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr wide = b.alloc("wide", 16 * 4096 + 1024, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        pad(b, data);
        b.loop(12, [&] {
            AddrExpr e = AddrExpr::perThread(wide, 64);
            e.loopStride = 4096;
            b.store(e, "stream");
        });
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig noopt = txraceConfig();
    noopt.mode = core::RunMode::TxRaceNoOpt;
    core::RunResult r_noopt = core::runProgram(p, noopt);

    core::RunConfig dyn = txraceConfig();
    dyn.mode = core::RunMode::TxRaceDynLoopcut;
    core::RunResult r_dyn = core::runProgram(p, dyn);

    core::RunConfig prof = txraceConfig();
    prof.mode = core::RunMode::TxRaceProfLoopcut;
    core::RunResult r_prof = core::runProgram(p, prof);

    // NoOpt aborts on every execution of the loop; Dyn learns after a
    // couple; Prof avoids even the first.
    EXPECT_GE(r_noopt.stats.get("tx.abort.capacity"), 18u);
    EXPECT_LE(r_dyn.stats.get("tx.abort.capacity"), 4u);
    EXPECT_EQ(r_prof.stats.get("tx.abort.capacity"), 0u);
    EXPECT_GT(r_dyn.stats.get("txrace.loop_cuts"), 0u);
    EXPECT_LE(r_prof.totalCost, r_noopt.totalCost);
}

TEST(TxRace, SingleThreadedExecutionIsElided)
{
    // main's regions after the join run while it is the only live
    // thread, so the runtime skips their transactions (§4.3). They
    // come after a spawn, so the passes keep their accesses checked.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.compute(10);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker);
    b.joinAll();
    writePad(b, data);
    b.loop(50, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, txraceConfig());
    EXPECT_GE(r.stats.get("txrace.elided"), 50u);
    EXPECT_EQ(r.stats.get("tx.begins"), 0u);
    EXPECT_EQ(r.stats.get("tx.committed"), 0u);

    core::RunConfig native = txraceConfig();
    native.mode = core::RunMode::Native;
    core::RunResult n = core::runProgram(p, native);
    // Elision makes TxRace nearly free here.
    EXPECT_LT(r.overheadVs(n), 1.05);
}

TEST(TxRace, NothingLeftToCheckRunsUntracked)
{
    // freqmine and apache keep no instrumented access once elided:
    // such a run has no transaction, no slow path and no check, so
    // its sync ops skip happens-before tracking and it costs exactly
    // Native. fluidanimate keeps one checked store, so it still
    // tracks; TSan always does. The TSan totals are those at seed 1
    // uncalibrated, which the untracked TxRace runs must not move.
    struct Case
    {
        const char *app;
        bool untracked;
        uint64_t tsanTotal;
    };
    for (const Case &c : {Case{"freqmine", true, 41012},
                          Case{"apache", true, 32972},
                          Case{"fluidanimate", false, 148532}}) {
        SCOPED_TRACE(c.app);
        workloads::WorkloadParams params;
        params.calibrate = false;
        workloads::AppModel app = workloads::makeApp(c.app, params);
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceProfLoopcut;
        cfg.machine = app.machine;
        cfg.machine.seed = 1;
        core::RunConfig native = cfg;
        native.mode = core::RunMode::Native;
        core::RunConfig tsan = cfg;
        tsan.mode = core::RunMode::TSan;

        core::RunResult r = core::runProgram(app.program, cfg);
        const uint64_t n = core::runProgram(app.program, native).totalCost;
        const uint64_t txn =
            r.buckets[static_cast<size_t>(sim::Bucket::Txn)];
        EXPECT_EQ(core::runProgram(app.program, tsan).totalCost,
                  c.tsanTotal);

        // The policy on the prepared build, to read the detector
        // afterwards: untracked, no clock moved past its start.
        ir::Program prepared = passes::preparedForTxRace(app.program);
        core::TxRacePolicy policy(cfg);
        sim::Machine m(prepared, cfg.machine, policy);
        ASSERT_TRUE(m.run().ok());
        detector::HbDetector fresh;
        fresh.rootThread(0);
        const bool moved =
            m.det().clockOf(0).get(0) != fresh.clockOf(0).get(0) ||
            m.det().clockOf(1).get(1) != 0;
        if (c.untracked) {
            EXPECT_EQ(txn, 0u);
            EXPECT_EQ(r.totalCost, n);
            EXPECT_FALSE(moved);
        } else {
            // Each create alone books syncTrackCost to the Txn bucket.
            EXPECT_GE(txn, cfg.machine.cost.syncTrackCost *
                               r.stats.get("machine.threads_created"));
            EXPECT_GT(r.totalCost, n);
            EXPECT_TRUE(moved);
        }
    }
}

TEST(TxRace, SmallRegionRunsOnSlowPath)
{
    ProgramBuilder b;
    Addr racy = b.alloc("racy", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        b.store(AddrExpr::absolute(racy), "tiny region store");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, txraceConfig());
    EXPECT_GE(r.stats.get("txrace.small_slow_regions"), 20u);
    EXPECT_EQ(r.stats.get("tx.begins"), 0u);
    // Slow-forced regions are software-checked every time, so the
    // race is found without needing transactional overlap.
    EXPECT_EQ(r.races.count(), 1u);
}

TEST(TxRace, BareRegionRunsWithoutATransaction)
{
    // Nothing writes the pad words, so the workers' regions have
    // nothing to check: no xbegin, no slow path, no check.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, txraceConfig());
    EXPECT_EQ(r.stats.get("pass.elide.bare_regions"), 2u);
    EXPECT_EQ(r.stats.get("txrace.bare_regions"), 33u);
    EXPECT_EQ(r.stats.get("tx.begins"), 0u);
    EXPECT_EQ(r.stats.get("txrace.slow_regions"), 0u);
    EXPECT_EQ(r.stats.get("txrace.small_slow_regions"), 0u);
    EXPECT_EQ(r.stats.get("detector.reads"), 0u);

    // Without elision the same regions run as transactions.
    core::RunConfig off = txraceConfig();
    off.passes.elide.enabled = false;
    core::RunResult roff = core::runProgram(p, off);
    EXPECT_EQ(roff.stats.get("txrace.bare_regions"), 0u);
    EXPECT_GE(roff.stats.get("tx.committed"), 33u);
}

TEST(TxRace, BareRegionAccessesStillAbortTransactions)
{
    // Strong isolation: the reader's word is never written, so its
    // regions are bare, but it shares a cache line with the word the
    // writer's transactions store to. The non-transactional loads
    // still abort those transactions; no race exists to report.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr line = b.alloc("line", 64, 64);
    FuncId writer = b.beginFunction("writer");
    b.loop(40, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(line), "writer word");
        b.compute(40);
        b.syscall(1);
    });
    b.endFunction();
    FuncId reader = b.beginFunction("reader");
    b.loop(200, [&] {
        b.load(AddrExpr::absolute(line + 8), "reader word");
        b.compute(4);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(writer, 1);
    b.spawn(reader, 1);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, txraceConfig());
    EXPECT_GT(r.stats.get("txrace.bare_regions"), 0u);
    EXPECT_GE(r.stats.get("tx.abort.conflict"), 1u);
    EXPECT_EQ(r.races.count(), 0u);
}

TEST(TxRace, HardwareThreadLimitFallsBackToSlowPath)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.machine.htm.maxConcurrentTx = 2;  // only two concurrent txs
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_GE(r.stats.get("txrace.hwlimit_aborts"), 1u);
    EXPECT_GT(r.stats.get("tx.committed"), 0u);
}

TEST(TxRace, Figure6NoFalseWarningAcrossPathAlternation)
{
    // T1 writes X in a checked (slow-forced) region, then signals;
    // T2 waits — an edge established while both are otherwise on the
    // fast path — and then writes X in a checked region. TxRace must
    // not warn.
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId t1 = b.beginFunction("t1");
    b.store(AddrExpr::absolute(x), "x=1");
    b.syscall(1);
    b.signal(0);
    b.compute(50);
    b.endFunction();
    FuncId t2 = b.beginFunction("t2");
    b.wait(0);
    b.store(AddrExpr::absolute(x), "x=2");
    b.syscall(1);
    b.compute(50);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(t1, 1);
    b.spawn(t2, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    for (uint64_t seed = 1; seed <= 10; ++seed) {
        core::RunResult r = core::runProgram(p, txraceConfig(seed));
        EXPECT_EQ(r.races.count(), 0u) << "seed " << seed;
    }
}

TEST(TxRace, NonOverlappingRaceIsMissed)
{
    // §6 false-negative source one: the racing accesses sit in fast
    // transactions that never overlap in time (one at the very start,
    // one at the very end of long-running workers).
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr early_late = b.alloc("el", 8);
    FuncId t1 = b.beginFunction("t1");
    pad(b, data);
    b.store(AddrExpr::absolute(early_late), "early write");
    b.syscall(1);
    b.loop(60, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    FuncId t2 = b.beginFunction("t2");
    b.loop(60, [&] {
        pad(b, data);
        b.syscall(1);
    });
    pad(b, data);
    b.load(AddrExpr::absolute(early_late), "late read");
    b.syscall(1);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(t1, 1);
    b.spawn(t2, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    // TxRace misses it on every seed (accesses are ~60 regions apart)…
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        core::RunResult r = core::runProgram(p, txraceConfig(seed));
        EXPECT_EQ(r.races.count(), 0u) << "seed " << seed;
    }
    // …while the happens-before baseline reports it.
    core::RunConfig tsan = txraceConfig();
    tsan.mode = core::RunMode::TSan;
    core::RunResult r_tsan = core::runProgram(p, tsan);
    EXPECT_EQ(r_tsan.races.count(), 1u);
}

TEST(TxRace, FastSlowConcurrencyDetectsOneDirection)
{
    // §4.2 / Fig. 5: a capacity-stuck thread on the slow path races a
    // fast-path thread. When the slow access comes first and the fast
    // transaction touches the line afterwards, strong isolation does
    // not fire (nothing is in any write set at fast-access time) —
    // unless the slow write lands while the fast transaction is live.
    // Across seeds, detection happens in some runs but not reliably:
    // the key assertion is that it is *possible* (the paper's Fig. 5)
    // and that nothing false is ever reported.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr wide = b.alloc("wide", 16 * 4096 + 1024, 64);
    Addr x = b.alloc("x", 8);
    FuncId slow = b.beginFunction("slowpoke");
    b.loop(12, [&] {
        pad(b, data);
        // Capacity overflow forces this whole region slow; the region
        // also writes the contested variable.
        b.loop(12, [&] {
            AddrExpr e = AddrExpr::perThread(wide, 64);
            e.loopStride = 4096;
            b.store(e, "stream");
        });
        b.store(AddrExpr::absolute(x), "slow write");
        b.syscall(1);
    });
    b.endFunction();
    FuncId fast = b.beginFunction("fastpath");
    b.loop(40, [&] {
        pad(b, data);
        b.load(AddrExpr::absolute(x), "fast read");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(slow, 1);
    b.spawn(fast, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.mode = core::RunMode::TxRaceNoOpt;
    size_t found = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        cfg.machine.seed = seed;
        core::RunResult r = core::runProgram(p, cfg);
        EXPECT_LE(r.races.count(), 1u);
        found += r.races.count();
    }
    EXPECT_GE(found, 1u);
}

TEST(TxRace, DeterministicGivenSeed)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr racy = b.alloc("racy", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(15, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(racy));
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunResult a = core::runProgram(p, txraceConfig(123));
    core::RunResult b2 = core::runProgram(p, txraceConfig(123));
    EXPECT_EQ(a.totalCost, b2.totalCost);
    EXPECT_EQ(a.stats.all(), b2.stats.all());
    EXPECT_EQ(a.races.keys(), b2.races.keys());
}

TEST(TxRace, BucketsSumToTotalCost)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr racy = b.alloc("racy", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(15, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(racy));
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.machine.interruptPerStep = 1e-3;  // some unknown aborts too
    core::RunResult r = core::runProgram(p, cfg);
    uint64_t sum = 0;
    for (uint64_t v : r.buckets)
        sum += v;
    EXPECT_EQ(sum, r.totalCost);
}

TEST(TxRace, UnknownAbortsFallBackAndStayComplete)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(30, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.machine.interruptPerStep = 0.05;
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_GE(r.stats.get("tx.abort.unknown"), 5u);
    EXPECT_EQ(r.races.count(), 0u);  // race-free program stays clean
}

TEST(TxRace, RetryAbortsAreRetriedInPlace)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(25, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.machine.faults.add(retryGlitch(0.02));
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_GE(r.stats.get("tx.abort.retry"), 5u);
    EXPECT_GE(r.stats.get("txrace.retries"), 5u);
    // Retried regions still commit; the program completes cleanly
    // with no detection noise.
    EXPECT_GT(r.stats.get("tx.committed"), 0u);
    EXPECT_EQ(r.races.count(), 0u);

    // Retrying is invisible to correctness: a racy variant still
    // finds its race under heavy retry pressure.
    ProgramBuilder b2;
    Addr data2 = b2.alloc("data", 4096);
    Addr racy = b2.alloc("racy", 8);
    FuncId worker2 = b2.beginFunction("worker");
    b2.loop(25, [&] {
        pad(b2, data2);
        b2.store(AddrExpr::absolute(racy), "retry racy store");
        b2.syscall(1);
    });
    b2.endFunction();
    b2.beginFunction("main");
    b2.spawn(worker2, 3);
    b2.joinAll();
    b2.endFunction();
    Program p2 = b2.build();
    core::RunResult r2 = core::runProgram(p2, cfg);
    EXPECT_EQ(r2.races.count(), 1u);
}

TEST(TxRace, RetryBudgetExhaustionFallsBackToSlowPath)
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        pad(b, data);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.machine.faults.add(retryGlitch(0.6));  // hopeless glitch storm
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_GE(r.stats.get("txrace.retry_exhausted"), 1u);
    // The run still terminates and reports nothing false.
    EXPECT_EQ(r.races.count(), 0u);
}

TEST(TxRace, CapacityEpisodeChecksTheWholeRegion)
{
    // A capacity fallback re-runs its whole region on the slow path,
    // so a race anywhere in the overflowing region is found.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr wide = b.alloc("wide", 16 * 4096 + 1024, 64);
    Addr racy = b.alloc("racy", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(8, [&] {
        pad(b, data);
        b.loop(12, [&] {
            AddrExpr e = AddrExpr::perThread(wide, 64);
            e.loopStride = 4096;
            b.store(e, "stream");
        });
        // The racy store lives in the overflowing region; only the
        // capacity fallback's full re-check can record it.
        b.store(AddrExpr::absolute(racy), "capacity racy store");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.mode = core::RunMode::TxRaceNoOpt;  // capacity abort each time
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_GE(r.stats.get("tx.abort.capacity"), 8u);
    EXPECT_EQ(r.races.count(), 1u);
}

TEST(TxRace, RetryAbortsAreRetriedInPlaceThenFallBack)
{
    // A certain retry glitch: every transactional step raises a
    // RETRY-only abort, so each non-elided region burns its full
    // in-place retry budget (maxRetries = 4) and then falls back to
    // the slow path like an unknown abort (§4.2).
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    FuncId worker = b.beginFunction("worker");
    pad(b, data);
    b.store(AddrExpr::perThread(data + 1024, 64), "own cell");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = txraceConfig();
    cfg.machine.faults.add(retryGlitch(1.0));
    core::RunResult r = core::runProgram(p, cfg);

    uint64_t exhausted = r.stats.get("txrace.retry_exhausted");
    EXPECT_GE(exhausted, 1u);
    // Every retry abort the machine injected reached the handler.
    EXPECT_EQ(r.stats.get("tx.abort.retry"),
              r.stats.get("machine.retry_aborts"));
    // Each exhausted region made exactly maxRetries (4) in-place
    // retries and aborted maxRetries + 1 times in total.
    EXPECT_EQ(r.stats.get("txrace.retries"), 4 * exhausted);
    EXPECT_EQ(r.stats.get("tx.abort.retry"), 5 * exhausted);
    // RETRY-only aborts are not conflicts, capacity, or interrupts.
    EXPECT_EQ(r.stats.get("tx.abort.conflict"), 0u);
    EXPECT_EQ(r.stats.get("tx.abort.capacity"), 0u);
    EXPECT_EQ(r.stats.get("tx.abort.unknown"), 0u);
    // Disjoint per-thread data: the slow-path re-checks stay quiet.
    EXPECT_EQ(r.races.count(), 0u);
    EXPECT_TRUE(r.error.ok());
}

namespace {

/**
 * Two writers meet at a barrier, then run one region each that ends
 * right after its store to `x`. When the regions overlap, the later
 * store wins the conflict, and on some schedules the winner commits
 * before the victim's TxFail write lands.
 */
Program
winnerEscapesProgram()
{
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr x = b.alloc("x", 8);
    FuncId writer = b.beginFunction("writer");
    b.barrier(0, 2);
    pad(b, data);
    b.store(AddrExpr::absolute(x), "racy store");
    b.syscall(1);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(writer, 2);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    return b.build();
}

/** Conflict aborts of requester-wins victims (TxFail collateral
 *  aborts excluded). */
uint64_t
conflictVictims(const core::RunResult &r)
{
    return r.stats.get("tx.abort.conflict") -
           r.stats.get("txrace.artificial_aborts");
}

/** Sum of @p name's observations in the run's registry. */
uint64_t
histogramSum(const core::RunResult &r, const std::string &name)
{
    const telemetry::MetricRegistry &reg = r.telemetry.registry;
    return reg.hist(reg.find(name)).sum();
}

} // namespace

TEST(TxRace, WinnerReplayFindsTheRaceOfAWinnerThatCommitsFirst)
{
    // §6 false-negative source two: the winner commits before the
    // victim publishes TxFail (the broadcast aborts nobody), so the
    // pure protocol re-checks only the victim's store and misses the
    // race. The winner replays the window it owes right after its
    // commit, and the victim's slow-path store then races it. Where
    // the broadcast still catches the winner in flight, the winner
    // drops its owed window unreplayed and its slow re-execution finds
    // the race, as the pure protocol's does.
    Program p = winnerEscapesProgram();
    size_t escaped = 0, caught = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        core::RunConfig pure_cfg = txraceConfig(seed);
        pure_cfg.slowpath = core::SlowPathKind::TxFail;
        core::RunResult pure = core::runProgram(p, pure_cfg);
        core::RunResult r = core::runProgram(p, txraceConfig(seed));
        EXPECT_EQ(pure.stats.get("txrace.window.replays"), 0u);
        EXPECT_EQ(pure.stats.get("detector.replay_checks"), 0u);
        EXPECT_EQ(conflictVictims(r), conflictVictims(pure));
        if (conflictVictims(pure) == 0) {
            EXPECT_EQ(pure.races.count(), 0u);
            EXPECT_EQ(r.races.count(), 0u);
            continue;
        }
        ASSERT_EQ(conflictVictims(pure), 1u);
        ASSERT_EQ(r.races.count(), 1u);
        detector::Race race = r.races.all()[0];
        EXPECT_EQ(p.instr(race.first).tag, "racy store");
        EXPECT_EQ(p.instr(race.second).tag, "racy store");
        if (pure.stats.get("txrace.artificial_aborts") == 0) {
            ++escaped;
            EXPECT_EQ(pure.races.count(), 0u);
            EXPECT_EQ(r.stats.get("txrace.window.replays"), 1u);
            EXPECT_EQ(r.stats.get("detector.replay_checks"),
                      histogramSum(r, "slowpath.window.len"));
            EXPECT_GT(r.stats.get("detector.replay_checks"), 0u);
            EXPECT_EQ(r.stats.get("htm.vlog.owed_dropped"), 0u);
        } else {
            ++caught;
            EXPECT_EQ(pure.races.count(), 1u);
            EXPECT_EQ(r.stats.get("txrace.window.replays"), 0u);
            EXPECT_EQ(r.stats.get("detector.replay_checks"), 0u);
            EXPECT_EQ(r.stats.get("htm.vlog.owed_dropped"), 1u);
        }
    }
    // Seeds 1-20 hold both shapes (at this change: 2 escapes and 3
    // catches).
    EXPECT_GE(escaped, 1u);
    EXPECT_GE(caught, 1u);
}

TEST(TxRace, TwoVictimsOfOneWinnerReplayItsWindowOnce)
{
    // Two readers hold `x` in their read sets when the writer stores
    // to it: one access, two victims. Both mark the same window owed,
    // so the writer replays it at most once (when it commits before
    // either TxFail lands), and every replayed entry is checked
    // exactly once.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr x = b.alloc("x", 8);
    FuncId reader = b.beginFunction("reader");
    pad(b, data);
    b.load(AddrExpr::absolute(x), "racy load");
    b.loop(200, [&] { b.compute(1); });
    pad(b, data + 64);
    b.syscall(1);
    b.endFunction();
    FuncId writer = b.beginFunction("writer");
    b.loop(40, [&] { b.compute(1); });
    pad(b, data);
    b.store(AddrExpr::absolute(x), "racy store");
    b.syscall(1);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(reader, 2);
    b.spawn(writer);
    b.joinAll();
    writePad(b, data);
    writePad(b, data + 64);
    b.endFunction();
    Program p = b.build();

    size_t two_victims = 0, replayed = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        core::RunResult r = core::runProgram(p, txraceConfig(seed));
        if (conflictVictims(r) != 2)
            continue;
        ++two_victims;
        const uint64_t replays = r.stats.get("txrace.window.replays");
        EXPECT_LE(replays, 1u);
        const uint64_t window = histogramSum(r, "slowpath.window.len");
        EXPECT_EQ(window > 0, replays == 1);
        EXPECT_EQ(r.stats.get("detector.replay_checks"), window);
        replayed += replays;
    }
    // At this change: 12 of seeds 1-20 have both victims, and the
    // writer escaped TxFail (and replayed) on 5 of them.
    EXPECT_GE(two_victims, 1u);
    EXPECT_GE(replayed, 1u);
}

TEST(TxRace, WinnerReplayUsesTheClockOfTheCommitNotOfTheNextSync)
{
    // The winner stores `x` under mutex 0, and that store aborts the
    // victim by false sharing (`y` is another granule of x's line).
    // The winner commits, releases the mutex, and a third thread then
    // acquires it and stores `x` in a small (always checked) region.
    // The two stores of `x` are ordered by the mutex, so nothing
    // races. The winner's replay has to run as of its commit: with the
    // clock it has after the release, the guarded store would look
    // concurrent with the replayed one.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr line = b.alloc("line", 64);
    const Addr x = line, y = line + 8;
    FuncId winner = b.beginFunction("winner");
    b.barrier(0, 2);
    b.lock(0);
    pad(b, data);
    b.loop(40, [&] { b.compute(1); });
    b.store(AddrExpr::absolute(x), "winner store");
    b.unlock(0);
    b.endFunction();
    FuncId victim = b.beginFunction("victim");
    b.barrier(0, 2);
    pad(b, data);
    b.store(AddrExpr::absolute(y), "false sharing");
    b.loop(200, [&] { b.compute(1); });
    b.syscall(1);
    b.endFunction();
    FuncId guarded = b.beginFunction("guarded");
    b.loop(400, [&] { b.compute(1); });
    b.lock(0);
    b.store(AddrExpr::absolute(x), "guarded store");
    b.unlock(0);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(winner);
    b.spawn(victim);
    b.spawn(guarded);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    size_t replayed = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        core::RunConfig cfg = txraceConfig(seed);
        // Every store of `x` stays checked (the lockset pass would
        // otherwise elide the two guarded ones).
        cfg.passes.elide.enabled = false;
        core::RunResult r = core::runProgram(p, cfg);
        EXPECT_EQ(r.races.count(), 0u);
        const uint64_t replays = r.stats.get("txrace.window.replays");
        EXPECT_LE(replays, 1u);
        replayed += replays;
    }
    // At this change the winner escaped TxFail and replayed on 5 of
    // seeds 1-20; replaying after the release reports a race on each.
    EXPECT_GE(replayed, 1u);
}

TEST(TxRace, WinnerThatRetriesInPlaceReplaysItsWindowFirst)
{
    // The winner's region goes on computing after the racy store, and
    // retry-bit aborts are frequent, so the winner often aborts after
    // winning the conflict and re-begins in place. Its re-run is fast
    // and, with TxFail's publication delayed, commits before the
    // broadcast: only the replay at the re-begin checks its store.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr x = b.alloc("x", 8);
    FuncId writer = b.beginFunction("writer");
    b.barrier(0, 2);
    pad(b, data);
    b.store(AddrExpr::absolute(x), "racy store");
    for (int i = 0; i < 60; ++i)
        b.compute(1);
    b.syscall(1);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(writer, 2);
    b.joinAll();
    writePad(b, data);
    b.endFunction();
    Program p = b.build();

    size_t conflicted = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        core::RunConfig cfg = txraceConfig(seed);
        cfg.machine.faults.add(retryGlitch(0.02));
        fault::FaultEpisode delay;
        delay.kind = fault::FaultKind::TxFailDelay;
        delay.duration = ~0ull >> 1;
        delay.param = 400;
        cfg.machine.faults.add(delay);
        core::RunResult r = core::runProgram(p, cfg);
        if (conflictVictims(r) == 0)
            continue;
        ++conflicted;
        EXPECT_EQ(r.races.count(), 1u);
    }
    // At this change 10 of seeds 1-20 conflict, and dropping the owed
    // window at the retry abort loses the race on 5 of them.
    EXPECT_GE(conflicted, 1u);
}

TEST(TxRace, MonitorModeReplaysTheWindowOfAWinnerItAborts)
{
    // Under the monitor budget a slow episode's checks may be gated or
    // sampled out, so an aborted winner's re-execution does not
    // reliably check its owed window again: the winner replays it at
    // the abort. At seed 3 with a 5% budget, bodytrack and canneal each
    // find one race only through those replays.
    for (const char *name : {"bodytrack", "canneal"}) {
        SCOPED_TRACE(name);
        workloads::AppModel app = workloads::makeApp(name);
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceDynLoopcut;
        cfg.machine = app.machine;
        cfg.machine.seed = 3;
        cfg.governor.enabled = true;
        cfg.budget.enabled = true;
        cfg.budget.budgetPct = 5.0;
        core::RunResult r = core::runProgram(app.program, cfg);
        EXPECT_TRUE(r.error.ok());
        EXPECT_EQ(r.races.count(), 1u);
        EXPECT_EQ(r.stats.get("htm.vlog.owed_dropped"), 0u);
        EXPECT_GT(r.stats.get("txrace.window.replays"), 0u);
    }
}

TEST(TxRace, PureTxFailProtocolKeepsNoVersionLog)
{
    // Without the replay nothing reads the version log, so it stays
    // off and its ring never bounds a transaction: the capacity aborts
    // are the paper protocol's (pinned at the change that made the
    // replay the default, from the region-repair mode it replaced;
    // facesim's fell from 47 when its thread-disjoint mesh regions
    // started running bare).
    struct Pin
    {
        const char *app;
        uint64_t capacityAborts;
    };
    for (const Pin &pin : {Pin{"swaptions", 48}, Pin{"facesim", 42}}) {
        SCOPED_TRACE(pin.app);
        workloads::AppModel app = workloads::makeApp(pin.app);
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceNoOpt;
        cfg.slowpath = core::SlowPathKind::TxFail;
        cfg.machine = app.machine;
        core::RunResult r = core::runProgram(app.program, cfg);
        EXPECT_EQ(r.stats.get("tx.abort.capacity"), pin.capacityAborts);
        EXPECT_EQ(r.stats.get("htm.vlog.entries"), 0u);
        EXPECT_EQ(r.stats.get("txrace.window.replays"), 0u);
    }
}

TEST(TxRace, FullVersionLogRingAbortsWithCapacity)
{
    // Each worker's first region logs an entry per instrumented access,
    // and 1100 loads of one line overflow the 1024-entry ring long
    // before the read set fills. The full ring aborts the transaction
    // with a capacity status instead of truncating the window. Without
    // the replay there is no log, so nothing overflows. The second
    // region is long enough for the workers' racy accesses to overlap,
    // and both slow paths find the same races there.
    ProgramBuilder b;
    Addr hot = b.alloc("hot", 4 * 64);
    Addr shared = b.alloc("shared", 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(1100,
           [&] { b.load(AddrExpr::perThread(hot, 64), "hot load"); });
    b.syscall(1);
    b.store(AddrExpr::absolute(shared), "racy store");
    b.loop(200,
           [&] { b.load(AddrExpr::perThread(hot, 64), "cold load"); });
    b.load(AddrExpr::absolute(shared), "racy load");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    for (core::SlowPathKind kind :
         {core::SlowPathKind::Replay, core::SlowPathKind::TxFail}) {
        SCOPED_TRACE(core::slowPathKindName(kind));
        core::RunConfig cfg = txraceConfig();
        cfg.mode = core::RunMode::TxRaceNoOpt;
        cfg.passes.elide.enabled = false;
        cfg.slowpath = kind;
        core::RunResult r = core::runProgram(p, cfg);
        ASSERT_TRUE(r.error.ok());
        const uint64_t overflows =
            kind == core::SlowPathKind::Replay ? 2 : 0;
        EXPECT_EQ(r.stats.get("htm.vlog.ring_overflows"), overflows);
        EXPECT_EQ(r.stats.get("tx.abort.capacity"), overflows);
        EXPECT_EQ(r.stats.get("htm.aborts.capacity"), overflows);
        EXPECT_EQ(r.races.count(), 2u);
    }
}
