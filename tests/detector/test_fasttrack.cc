/**
 * @file
 * Unit tests for the FastTrack-style happens-before detector:
 * detection of each race kind, suppression by every synchronization
 * idiom, the Figure 6 scenario (sync tracked while accesses are not
 * checked), and the bounded-shadow eviction mode.
 */

#include <gtest/gtest.h>

#include "detector/fasttrack.hh"

using namespace txrace;
using namespace txrace::detector;

namespace {

/** Two threads below one parent, ready to race. */
HbDetector
twoThreads()
{
    HbDetector det;
    det.rootThread(0);
    det.threadCreated(0, 1);
    det.threadCreated(0, 2);
    return det;
}

} // namespace

TEST(FastTrack, WriteWriteRace)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.write(2, 0x40, 20);
    ASSERT_EQ(det.races().count(), 1u);
    EXPECT_TRUE(det.races().contains(10, 20));
}

TEST(FastTrack, WriteReadRace)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.read(2, 0x40, 20);
    ASSERT_EQ(det.races().count(), 1u);
    Race r = det.races().all()[0];
    EXPECT_EQ(r.kind, RaceKind::WriteRead);
}

TEST(FastTrack, ReadWriteRace)
{
    HbDetector det = twoThreads();
    det.read(1, 0x40, 10);
    det.write(2, 0x40, 20);
    ASSERT_EQ(det.races().count(), 1u);
    EXPECT_EQ(det.races().all()[0].kind, RaceKind::ReadWrite);
}

TEST(FastTrack, ReadReadIsNotARace)
{
    HbDetector det = twoThreads();
    det.read(1, 0x40, 10);
    det.read(2, 0x40, 20);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, SameThreadSequentialIsNotARace)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.write(1, 0x40, 10);
    det.read(1, 0x40, 11);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, DifferentGranulesDoNotRace)
{
    // Two variables in the same cache line but different granules —
    // the false-sharing case the slow path must NOT report.
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.write(2, 0x48, 20);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, LockOrderSuppressesRace)
{
    HbDetector det = twoThreads();
    det.lockAcquire(1, 7);
    det.write(1, 0x40, 10);
    det.lockRelease(1, 7);
    det.lockAcquire(2, 7);
    det.write(2, 0x40, 20);
    det.lockRelease(2, 7);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, DifferentLocksDoNotOrder)
{
    HbDetector det = twoThreads();
    det.lockAcquire(1, 7);
    det.write(1, 0x40, 10);
    det.lockRelease(1, 7);
    det.lockAcquire(2, 8);
    det.write(2, 0x40, 20);
    det.lockRelease(2, 8);
    EXPECT_EQ(det.races().count(), 1u);
}

TEST(FastTrack, CondSignalWaitOrders)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.condSignal(1, 3);
    det.condWait(2, 3);
    det.write(2, 0x40, 20);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, WaitWithoutMatchingSignalDoesNotOrder)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    // Thread 2 "waits" on a condvar nobody signaled (banked post from
    // elsewhere): no edge from thread 1.
    det.condWait(2, 99);
    det.write(2, 0x40, 20);
    EXPECT_EQ(det.races().count(), 1u);
}

TEST(FastTrack, BarrierOrdersBothDirections)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.barrierRelease({1, 2});
    det.write(2, 0x40, 20);
    det.read(1, 0x48, 11);
    det.write(2, 0x48, 21);  // racy: same epoch-era, no order
    // 0x40 ordered by the barrier; 0x48 (accessed after) races.
    EXPECT_EQ(det.races().count(), 1u);
    EXPECT_TRUE(det.races().contains(11, 21));
}

TEST(FastTrack, CreateOrdersParentBeforeChild)
{
    HbDetector det;
    det.rootThread(0);
    det.write(0, 0x40, 5);
    det.threadCreated(0, 1);
    det.write(1, 0x40, 15);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, ParentWriteAfterCreateRacesChild)
{
    // The initialization idiom (§8.3): parent writes after spawning.
    HbDetector det;
    det.rootThread(0);
    det.threadCreated(0, 1);
    det.write(0, 0x40, 5);
    det.read(1, 0x40, 15);
    EXPECT_EQ(det.races().count(), 1u);
}

TEST(FastTrack, JoinOrdersChildBeforeParent)
{
    HbDetector det;
    det.rootThread(0);
    det.threadCreated(0, 1);
    det.write(1, 0x40, 15);
    det.threadJoined(0, 1);
    det.write(0, 0x40, 5);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, TransitiveOrderingThroughThirdThread)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.lockAcquire(1, 0);
    det.lockRelease(1, 0);
    det.lockAcquire(2, 0);
    det.lockRelease(2, 0);
    // Thread 2 is now ordered after thread 1's release.
    det.write(2, 0x40, 20);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, MultipleConcurrentReadersAllRaceWithWriter)
{
    HbDetector det;
    det.rootThread(0);
    det.threadCreated(0, 1);
    det.threadCreated(0, 2);
    det.threadCreated(0, 3);
    det.read(1, 0x40, 11);
    det.read(2, 0x40, 12);
    det.write(3, 0x40, 13);
    EXPECT_EQ(det.races().count(), 2u);
    EXPECT_TRUE(det.races().contains(11, 13));
    EXPECT_TRUE(det.races().contains(12, 13));
}

TEST(FastTrack, Figure6NoStaleFalsePositive)
{
    // Paper Fig. 6: accesses checked only in "slow" episodes, but
    // sync is tracked continuously. T1 writes X (checked), then a
    // signal->wait edge happens during an unchecked (fast) interval,
    // then T2 writes X (checked): no warning may be reported.
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);       // slow episode on T1
    det.condSignal(1, 4);         // fast path, but still tracked
    det.condWait(2, 4);
    det.write(2, 0x40, 20);       // slow episode on T2
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, UncheckedAccessesAreInvisible)
{
    // If sync were NOT tracked (the naive fast path), the same
    // scenario yields a false warning — the detector must only know
    // what it is told. This documents why TxRace pays the fast-path
    // sync-tracking cost.
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    // signal/wait happened on the fast path but was not tracked:
    det.write(2, 0x40, 20);
    EXPECT_EQ(det.races().count(), 1u);  // false warning
}

TEST(FastTrack, ReadSetCompactionKeepsConcurrentReads)
{
    HbDetector det;
    det.rootThread(0);
    det.threadCreated(0, 1);
    det.threadCreated(0, 2);
    det.threadCreated(0, 3);
    det.read(1, 0x40, 11);
    det.read(2, 0x40, 12);
    // Reader 3 is ordered after reader 1 via a lock, then reads: 1's
    // entry may be dropped, but 2's must survive.
    det.lockAcquire(1, 0);
    det.lockRelease(1, 0);
    det.lockAcquire(3, 0);
    det.lockRelease(3, 0);
    det.read(3, 0x40, 13);
    det.write(2, 0x48, 99);  // unrelated
    det.write(3, 0x40, 14);  // races with reader 2 only
    EXPECT_TRUE(det.races().contains(12, 14));
    EXPECT_FALSE(det.races().contains(11, 14));
}

TEST(FastTrack, WriteClearsReadSet)
{
    HbDetector det = twoThreads();
    det.read(1, 0x40, 11);
    det.write(1, 0x40, 12);  // same thread: no race, clears reads
    det.write(2, 0x40, 22);  // races with the write, not the read
    EXPECT_TRUE(det.races().contains(12, 22));
    EXPECT_FALSE(det.races().contains(11, 22));
}

TEST(FastTrack, BoundedShadowCanMissRaces)
{
    // With a 1-entry read set, concurrent readers evict each other
    // and a later writer can miss one of the read-write races —
    // modeling stock TSan's bounded shadow cells (§5).
    DetectorConfig cfg;
    cfg.maxShadowCells = 1;
    cfg.seed = 3;
    HbDetector det(cfg);
    det.rootThread(0);
    for (Tid t = 1; t <= 4; ++t)
        det.threadCreated(0, t);
    for (Tid t = 1; t <= 4; ++t)
        det.read(t, 0x40, 10 + t);
    det.write(0, 0x40, 9);
    // Only the surviving shadow entry can be reported.
    EXPECT_LE(det.races().count(), 2u);
    EXPECT_GE(det.counters().evictions, 1u);
}

TEST(FastTrack, StatsCountChecks)
{
    HbDetector det = twoThreads();
    det.read(1, 0x40, 1);
    det.read(1, 0x48, 1);
    det.write(2, 0x40, 2);
    EXPECT_EQ(det.counters().reads, 2u);
    EXPECT_EQ(det.counters().writes, 1u);
    EXPECT_EQ(det.counters().raceHits, 1u);
}

TEST(FastTrack, DropShadowForgetsAccessesButKeepsClocks)
{
    HbDetector det = twoThreads();
    det.write(1, 0x40, 10);
    det.dropShadow();
    det.write(2, 0x40, 20);
    EXPECT_EQ(det.races().count(), 0u);
}

TEST(FastTrack, EpochSufficiencyStatistics)
{
    // Ordered same-thread rereads stay in the single-epoch
    // representation; concurrent readers force a promotion —
    // FastTrack's core empirical observation, surfaced as counters.
    HbDetector det = twoThreads();
    det.read(1, 0x40, 1);
    det.read(1, 0x40, 1);
    det.read(1, 0x40, 1);
    EXPECT_EQ(det.counters().readEpochSufficient, 3u);
    EXPECT_EQ(det.counters().readVcPromoted, 0u);
    det.read(2, 0x40, 2);  // concurrent second reader: promotion
    EXPECT_EQ(det.counters().readVcPromoted, 1u);
}
