/**
 * @file
 * Unit tests for the Eraser-style lockset detector: the state
 * machine, candidate-set refinement, the initialization allowance,
 * and the characteristic false positive on non-mutex synchronization
 * that distinguishes it from happens-before detection.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "detector/lockset.hh"
#include "ir/builder.hh"

using namespace txrace;
using namespace txrace::detector;

TEST(Lockset, HeldSetTracksAcquireRelease)
{
    LocksetDetector d;
    d.lockAcquire(1, 10);
    d.lockAcquire(1, 11);
    EXPECT_EQ(d.heldBy(1).size(), 2u);
    d.lockRelease(1, 10);
    EXPECT_EQ(d.heldBy(1).count(11), 1u);
    EXPECT_EQ(d.heldBy(1).count(10), 0u);
    EXPECT_TRUE(d.heldBy(2).empty());
}

TEST(Lockset, ThreadLocalDataNeverWarns)
{
    LocksetDetector d;
    for (int i = 0; i < 10; ++i) {
        d.write(1, 0x40, 1);
        d.read(1, 0x40, 2);
    }
    EXPECT_EQ(d.races().count(), 0u);
}

TEST(Lockset, ConsistentLockingNeverWarns)
{
    LocksetDetector d;
    for (Tid t = 1; t <= 3; ++t) {
        d.lockAcquire(t, 7);
        d.read(t, 0x40, 10);
        d.write(t, 0x40, 11);
        d.lockRelease(t, 7);
    }
    EXPECT_EQ(d.races().count(), 0u);
}

TEST(Lockset, UnlockedSharedWriteWarnsOnce)
{
    LocksetDetector d;
    d.write(1, 0x40, 10);
    d.write(2, 0x40, 20);  // second thread, no locks: warn
    EXPECT_EQ(d.races().count(), 1u);
    EXPECT_TRUE(d.races().contains(10, 20));
    // Eraser warns once per location.
    d.write(3, 0x40, 30);
    EXPECT_EQ(d.races().count(), 1u);
}

TEST(Lockset, InconsistentLocksWarn)
{
    // The initialization allowance means candidate tracking starts at
    // the second thread's first access, so the inconsistency becomes
    // visible at the third access.
    LocksetDetector d;
    d.lockAcquire(1, 7);
    d.write(1, 0x40, 10);
    d.lockRelease(1, 7);
    d.lockAcquire(2, 8);   // different lock: candidates become {8}
    d.write(2, 0x40, 20);
    d.lockRelease(2, 8);
    EXPECT_EQ(d.races().count(), 0u);
    d.lockAcquire(1, 7);   // {8} ∩ {7} = {}: warn
    d.write(1, 0x40, 11);
    d.lockRelease(1, 7);
    EXPECT_EQ(d.races().count(), 1u);
}

TEST(Lockset, CandidateSetIsIntersection)
{
    LocksetDetector d;
    // Both threads hold {7,8} and {7}: candidate survives as {7}.
    d.lockAcquire(1, 7);
    d.lockAcquire(1, 8);
    d.write(1, 0x40, 10);
    d.lockRelease(1, 8);
    d.lockRelease(1, 7);
    d.lockAcquire(2, 7);
    d.write(2, 0x40, 20);
    d.lockRelease(2, 7);
    EXPECT_EQ(d.races().count(), 0u);
    // A third thread holding only {8} drains it.
    d.lockAcquire(3, 8);
    d.write(3, 0x40, 30);
    EXPECT_EQ(d.races().count(), 1u);
}

TEST(Lockset, InitializationThenReadSharingIsAllowed)
{
    // One thread initializes without locks; others only read: the
    // Shared state never escalates, no warning (Eraser's published
    // refinement).
    LocksetDetector d;
    d.write(1, 0x40, 10);
    d.write(1, 0x40, 10);
    d.read(2, 0x40, 20);
    d.read(3, 0x40, 21);
    EXPECT_EQ(d.races().count(), 0u);
}

TEST(Lockset, WriteAfterReadSharingEscalates)
{
    LocksetDetector d;
    d.write(1, 0x40, 10);
    d.read(2, 0x40, 20);   // Shared
    d.write(2, 0x40, 21);  // SharedModified, no locks anywhere
    EXPECT_EQ(d.races().count(), 1u);
}

TEST(Lockset, GranuleSeparation)
{
    LocksetDetector d;
    d.write(1, 0x40, 10);
    d.write(2, 0x48, 20);  // same line, different granule
    EXPECT_EQ(d.races().count(), 0u);
}

TEST(Lockset, BarrierOrderedSharingIsAFalsePositive)
{
    // The blind spot: Eraser cannot see barrier/condvar ordering.
    // This access pattern is race-free (verified against the
    // happens-before detector below) yet Eraser warns.
    ir::ProgramBuilder b;
    ir::Addr cells = b.alloc("cells", 5 * 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(5, [&] {
        b.store(ir::AddrExpr::perThread(cells, 64), "fill");
        b.barrier(0, 3);
        b.load(ir::AddrExpr::perThread(cells + 64, 64), "consume");
        b.barrier(1, 3);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    ir::Program p = b.build();

    core::RunConfig cfg;
    cfg.machine.seed = 5;
    cfg.mode = core::RunMode::TSan;
    core::RunResult tsan = core::runProgram(p, cfg);
    cfg.mode = core::RunMode::Eraser;
    core::RunResult eraser = core::runProgram(p, cfg);

    EXPECT_EQ(tsan.races.count(), 0u);   // ground truth: race-free
    EXPECT_GE(eraser.races.count(), 1u); // Eraser warns anyway
}

TEST(Lockset, EraserModeRunsViaDriver)
{
    ir::ProgramBuilder b;
    ir::Addr counter = b.alloc("counter", 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] { b.store(ir::AddrExpr::absolute(counter), "c"); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    ir::Program p = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::Eraser;
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_EQ(r.races.count(), 1u);
    EXPECT_GT(r.stats.get("lockset.writes"), 0u);
    EXPECT_EQ(r.stats.get("lockset.warnings"), 1u);

    // Cheaper than the happens-before baseline on the same program.
    cfg.mode = core::RunMode::TSan;
    core::RunResult tsan = core::runProgram(p, cfg);
    EXPECT_LT(r.totalCost, tsan.totalCost);
}

TEST(Lockset, StatsCountAccesses)
{
    LocksetDetector d;
    d.read(1, 0x40, 1);
    d.write(1, 0x48, 2);
    d.write(2, 0x48, 3);
    EXPECT_EQ(d.counters().reads, 1u);
    EXPECT_EQ(d.counters().writes, 2u);
}
