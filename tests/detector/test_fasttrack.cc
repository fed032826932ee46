/**
 * @file
 * Unit tests for the FastTrack-style happens-before detector:
 * detection of each race kind, suppression by every synchronization
 * idiom, the Figure 6 scenario (sync tracked while accesses are not
 * checked), and the bounded-shadow eviction mode.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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
    HbDetector det(cfg, /*seed=*/3);
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

namespace {

/**
 * Observer log of a detector: one "first-second:current<-other" entry
 * per new race, in detection order, then " | " and every race's
 * "first-second*hits" in key order. The detection order follows the
 * read set's internal order, so these strings pin it.
 */
struct RaceLog
{
    std::string events;

    void
    attach(HbDetector &det)
    {
        det.setRaceObserver([this](const Race &r, Tid cur, Tid other) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%u-%u:%u<-%u ", r.first,
                          r.second, cur, other);
            events += buf;
        });
    }

    std::string
    str(const HbDetector &det) const
    {
        std::string out = events + "|";
        for (const Race &r : det.races().all()) {
            char buf[64];
            std::snprintf(buf, sizeof buf, " %u-%u*%llu", r.first,
                          r.second,
                          static_cast<unsigned long long>(r.hits));
            out += buf;
        }
        return out;
    }
};

/** Root thread 0 plus children 1..n, all concurrent. */
HbDetector
nThreads(Tid n, const DetectorConfig &cfg = {}, uint64_t seed = 1)
{
    HbDetector det(cfg, seed);
    det.rootThread(0);
    for (Tid t = 1; t <= n; ++t)
        det.threadCreated(0, t);
    return det;
}

} // namespace

TEST(FastTrack, ReadSetOrderPinnedThroughObserver)
{
    // Four concurrent readers, pruning by a lock edge and by a
    // same-thread reread, then racing writes: the observer sees the
    // read-write races in read-set order (swap-remove, then append).
    HbDetector det = nThreads(6);
    RaceLog log;
    log.attach(det);
    for (ir::Addr x : {ir::Addr{0x80}, ir::Addr{0x88}}) {
        det.read(1, x, 11);
        det.read(2, x, 12);
        det.read(3, x, 13);
        det.read(4, x, 14);
        det.lockRelease(2, 7);
        det.lockAcquire(4, 7);
        det.read(4, x, 24);  // drops 4's own entry and 2's (ordered)
        det.read(1, x, 21);  // replaces 1's entry
        det.read(5, x, 15);
        det.write(6, x, 60);  // races with every surviving read
        det.read(3, x, 33);   // write-read with 60
        det.read(2, x, 32);
        det.write(1, x, 41);  // write-write with 60, read-write x2
    }
    EXPECT_EQ(log.str(det),
              "24-60:6<-4 13-60:6<-3 21-60:6<-1 15-60:6<-5 "
              "33-60:3<-6 32-60:2<-6 41-60:1<-6 33-41:1<-3 32-41:1<-2 "
              "| 13-60*2 15-60*2 21-60*2 24-60*2 32-41*2 32-60*2 "
              "33-41*2 33-60*2 41-60*2");
    EXPECT_EQ(det.counters().raceHits, 18u);
    EXPECT_EQ(det.counters().readVcPromoted, 14u);
    EXPECT_EQ(det.counters().readEpochSufficient, 4u);
}

TEST(FastTrack, BoundedShadowEvictionOrderPinned)
{
    // maxShadowCells = 2: the RNG picks the victim index in the read
    // set, so which races survive depends on the read-set order.
    DetectorConfig cfg;
    cfg.maxShadowCells = 2;
    HbDetector det = nThreads(6, cfg, /*seed=*/5);
    RaceLog log;
    log.attach(det);
    for (uint64_t g = 0; g < 6; ++g) {
        ir::Addr x = 0x400 + g * 8;
        for (Tid t = 1; t <= 5; ++t)
            det.read(t, x, 10 * g + t);
        det.read(2, x, 10 * g + 7);
        det.write(6, x, 100 + g);
    }
    EXPECT_EQ(log.str(det),
              "3-100:6<-3 5-100:6<-5 11-101:6<-1 15-101:6<-5 "
              "27-102:6<-2 24-102:6<-4 31-103:6<-1 35-103:6<-5 "
              "41-104:6<-1 45-104:6<-5 55-105:6<-5 54-105:6<-4 "
              "| 3-100*1 5-100*1 11-101*1 15-101*1 24-102*1 27-102*1 "
              "31-103*1 35-103*1 41-104*1 45-104*1 54-105*1 55-105*1");
    EXPECT_EQ(det.counters().evictions, 24u);
    EXPECT_EQ(det.counters().raceHits, 12u);
}

TEST(FastTrack, DropShadowThenReuse)
{
    // After dropShadow() the same granules, and pages, start empty
    // and detect afresh; clocks survive.
    HbDetector det = nThreads(3);
    RaceLog log;
    log.attach(det);
    det.read(1, 0x40, 11);
    det.read(2, 0x40, 12);
    det.write(1, 0x2000, 13);
    det.dropShadow();
    det.write(3, 0x40, 30);     // the two reads are forgotten
    det.read(2, 0x40, 22);      // write-read with 30
    det.write(2, 0x2000, 23);   // 13 is forgotten
    det.write(1, 0x2000, 33);   // write-write with 23
    EXPECT_EQ(log.str(det), "22-30:2<-3 23-33:1<-2 | 22-30*1 23-33*1");
    EXPECT_EQ(det.counters().raceHits, 2u);
}

TEST(FastTrack, AddressesPastThePageTableGetShadow)
{
    // The page table grows on demand, and an address far past any
    // direct table still gets its own shadow.
    HbDetector det = nThreads(2);
    RaceLog log;
    log.attach(det);
    det.write(1, 0x1000, 9);  // the table now ends at page 4
    const ir::Addr addrs[] = {0x1ff0, 0x2000, 0x40000, ir::Addr{1} << 40,
                              ~ir::Addr{0} - 7};
    for (ir::InstrId i = 0; i < 5; ++i) {
        det.write(1, addrs[i], 10 + i);
        det.read(2, addrs[i] + 8, 30 + i);  // next granule: no race
        det.read(2, addrs[i], 20 + i);
    }
    EXPECT_EQ(log.str(det), "10-20:2<-1 11-21:2<-1 12-22:2<-1 "
                            "13-23:2<-1 14-24:2<-1 "
                            "| 10-20*1 11-21*1 12-22*1 13-23*1 14-24*1");
}
