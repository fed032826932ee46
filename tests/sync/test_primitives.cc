/**
 * @file
 * Unit tests for the blocking synchronization tables.
 */

#include <gtest/gtest.h>

#include "sync/primitives.hh"

using namespace txrace;
using namespace txrace::sync;

TEST(Mutex, FreeLockAcquires)
{
    SyncTables s;
    EXPECT_TRUE(s.lockTryAcquire(1, 0));
    EXPECT_EQ(s.lockOwner(0), 1u);
}

TEST(Mutex, HeldLockRefuses)
{
    SyncTables s;
    ASSERT_TRUE(s.lockTryAcquire(1, 0));
    EXPECT_FALSE(s.lockTryAcquire(2, 0));
}

TEST(Mutex, ReleaseWithoutWaitersFreesLock)
{
    SyncTables s;
    ASSERT_TRUE(s.lockTryAcquire(1, 0));
    EXPECT_EQ(s.lockRelease(1, 0), kNoTid);
    EXPECT_EQ(s.lockOwner(0), kNoTid);
    EXPECT_TRUE(s.lockTryAcquire(2, 0));
}

TEST(Mutex, OwnershipTransfersFifo)
{
    SyncTables s;
    ASSERT_TRUE(s.lockTryAcquire(1, 0));
    s.lockEnqueue(2, 0);
    s.lockEnqueue(3, 0);
    EXPECT_EQ(s.lockRelease(1, 0), 2u);
    EXPECT_EQ(s.lockOwner(0), 2u);
    EXPECT_EQ(s.lockRelease(2, 0), 3u);
    EXPECT_EQ(s.lockRelease(3, 0), kNoTid);
}

TEST(Mutex, IndependentLockIds)
{
    SyncTables s;
    EXPECT_TRUE(s.lockTryAcquire(1, 10));
    EXPECT_TRUE(s.lockTryAcquire(2, 20));
    EXPECT_EQ(s.lockOwner(10), 1u);
    EXPECT_EQ(s.lockOwner(20), 2u);
}

TEST(MutexDeathTest, ReacquireByOwnerPanics)
{
    SyncTables s;
    ASSERT_TRUE(s.lockTryAcquire(1, 0));
    EXPECT_DEATH(s.lockTryAcquire(1, 0), "re-acquiring");
}

TEST(MutexDeathTest, ReleaseByNonOwnerPanics)
{
    SyncTables s;
    ASSERT_TRUE(s.lockTryAcquire(1, 0));
    EXPECT_DEATH(s.lockRelease(2, 0), "does not hold");
}

TEST(MutexDeathTest, ReleaseOfFreeLockPanics)
{
    SyncTables s;
    EXPECT_DEATH(s.lockRelease(1, 0), "does not hold");
}

TEST(Cond, WaitOnEmptyBlocks)
{
    SyncTables s;
    EXPECT_FALSE(s.condTryWait(0));
}

TEST(Cond, SignalBanksWithoutWaiter)
{
    SyncTables s;
    EXPECT_EQ(s.condSignal(0), kNoTid);
    EXPECT_TRUE(s.condTryWait(0));
    EXPECT_FALSE(s.condTryWait(0));  // consumed
}

TEST(Cond, SignalWakesOldestWaiter)
{
    SyncTables s;
    s.condEnqueue(5, 0);
    s.condEnqueue(6, 0);
    EXPECT_EQ(s.condSignal(0), 5u);
    EXPECT_EQ(s.condSignal(0), 6u);
    EXPECT_EQ(s.condSignal(0), kNoTid);  // banked now
}

TEST(Cond, BankedPostsAccumulate)
{
    SyncTables s;
    s.condSignal(0);
    s.condSignal(0);
    s.condSignal(0);
    EXPECT_TRUE(s.condTryWait(0));
    EXPECT_TRUE(s.condTryWait(0));
    EXPECT_TRUE(s.condTryWait(0));
    EXPECT_FALSE(s.condTryWait(0));
}

TEST(Barrier, ReleasesWhenFull)
{
    SyncTables s;
    EXPECT_TRUE(s.barrierArrive(1, 0, 3).empty());
    EXPECT_TRUE(s.barrierArrive(2, 0, 3).empty());
    auto released = s.barrierArrive(3, 0, 3);
    ASSERT_EQ(released.size(), 3u);
    EXPECT_EQ(released[0], 1u);
    EXPECT_EQ(released[1], 2u);
    EXPECT_EQ(released[2], 3u);
}

TEST(Barrier, ResetsAfterRelease)
{
    SyncTables s;
    s.barrierArrive(1, 0, 2);
    ASSERT_EQ(s.barrierArrive(2, 0, 2).size(), 2u);
    // Second generation works the same way.
    EXPECT_TRUE(s.barrierArrive(2, 0, 2).empty());
    EXPECT_EQ(s.barrierArrive(1, 0, 2).size(), 2u);
}

TEST(Barrier, SingleParticipantReleasesImmediately)
{
    SyncTables s;
    EXPECT_EQ(s.barrierArrive(1, 0, 1).size(), 1u);
}

TEST(BarrierDeathTest, ZeroParticipantsPanics)
{
    SyncTables s;
    EXPECT_DEATH(s.barrierArrive(1, 0, 0), "zero participants");
}
