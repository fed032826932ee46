/**
 * @file
 * Unit tests for the reverse line directory and the directory-engine
 * internals the differential test cannot see in isolation: table
 * growth/rehash (with dead-key reclamation), epoch-stamped bulk
 * clears and epoch wraparound, bitmask victim selection with thread
 * ids far beyond the slot count, and the telemetry counters.
 */

#include <gtest/gtest.h>

#include "htm/htm.hh"
#include "htm/linedir.hh"
#include "mem/layout.hh"

using namespace txrace;
using namespace txrace::htm;

TEST(LineDirectory, FindMissesUntilInserted)
{
    LineDirectory d(8);
    EXPECT_EQ(d.find(42), nullptr);
    LineDirectory::Entry &e = d.findOrInsert(42);
    e.readers = 0x5;
    ASSERT_NE(d.find(42), nullptr);
    EXPECT_EQ(d.find(42)->readers, 0x5u);
    EXPECT_EQ(d.occupied(), 1u);
}

TEST(LineDirectory, GrowthRehashKeepsEveryLiveEntry)
{
    LineDirectory d(8);
    // Insert far past the initial capacity; every entry stays
    // reachable with its masks intact across however many rehashes.
    for (uint64_t line = 0; line < 500; ++line) {
        LineDirectory::Entry &e = d.findOrInsert(line * 977);
        e.writers = line + 1;
    }
    EXPECT_GE(d.capacity(), 512u);
    EXPECT_GT(d.stats().rehashes, 0u);
    for (uint64_t line = 0; line < 500; ++line) {
        LineDirectory::Entry *e = d.find(line * 977);
        ASSERT_NE(e, nullptr) << "line " << line;
        EXPECT_EQ(e->writers, line + 1);
    }
    // Load factor stays below 3/4 after growth.
    EXPECT_LT(d.occupied() * 4, d.capacity() * 3);
}

TEST(LineDirectory, RehashDropsDeadKeys)
{
    LineDirectory d(8);
    // Occupy with keys whose masks are then cleared (dead keys):
    // they keep probe chains alive until a rehash reclaims them.
    for (uint64_t line = 0; line < 6; ++line) {
        d.findOrInsert(line).readers = 1;
        d.clearSlot(line, 0);
    }
    EXPECT_EQ(d.occupied(), 6u);
    // The next insertion trips the 3/4 load threshold and rehashes;
    // every dead key is reclaimed, so only the new key is occupied.
    d.findOrInsert(100).writers = 2;
    EXPECT_GT(d.stats().rehashes, 0u);
    EXPECT_EQ(d.occupied(), 1u);
    ASSERT_NE(d.find(100), nullptr);
    EXPECT_EQ(d.find(100)->writers, 2u);
}

TEST(LineDirectory, BulkClearIsEpochBump)
{
    LineDirectory d(8);
    d.findOrInsert(7).readers = 3;
    uint32_t before = d.debugEpoch();
    d.bulkClear();
    EXPECT_EQ(d.debugEpoch(), before + 1);
    EXPECT_EQ(d.find(7), nullptr);
    EXPECT_EQ(d.occupied(), 0u);
    EXPECT_EQ(d.stats().epochClears, 1u);
    // The slot is reusable afterwards.
    d.findOrInsert(7).writers = 1;
    EXPECT_EQ(d.find(7)->writers, 1u);
    EXPECT_EQ(d.find(7)->readers, 0u);
}

TEST(LineDirectory, EpochWraparoundInvalidatesStaleCells)
{
    LineDirectory d(8);
    d.debugSetEpoch(~0u);  // one bump away from wrapping
    d.findOrInsert(9).readers = 1;
    ASSERT_NE(d.find(9), nullptr);
    d.bulkClear();
    EXPECT_EQ(d.debugEpoch(), 1u);
    // A cell stamped with the pre-wrap epoch must not read as valid
    // after the counter comes back around to any small value.
    EXPECT_EQ(d.find(9), nullptr);
    d.findOrInsert(9).writers = 2;
    EXPECT_EQ(d.find(9)->readers, 0u);
    EXPECT_EQ(d.find(9)->writers, 2u);
}

TEST(LineDirectory, ClearSlotOnMissingLineIsIgnored)
{
    LineDirectory d(8);
    d.clearSlot(1234, 3);  // may have died with an epoch clear
    EXPECT_EQ(d.occupied(), 0u);
}

TEST(LineDirectory, ProbeLengthHistogramRecordsLookups)
{
    LineDirectory d(8);
    d.findOrInsert(1);
    d.find(1);
    d.find(2);
    EXPECT_EQ(d.stats().probeLen.count(), 3u);
}

// --- Directory-engine behavior over the public HtmEngine API ---

TEST(HtmDirectoryEngine, VictimBitmaskWithTidsBeyondSlotCount)
{
    // Three readers with tids 70, 131, 200 — all far beyond the 64
    // bitmask bits — are found through the slot->tid mapping when a
    // fourth high-tid thread writes their line, in ascending order.
    HtmConfig cfg;
    HtmEngine h(cfg);
    for (Tid t : {Tid{200}, Tid{70}, Tid{131}}) {
        h.begin(t);
        h.access(t, 0x1000, false);
    }
    auto res = h.access(999, 0x1000, true);
    ASSERT_EQ(res.victims.size(), 3u);
    EXPECT_EQ(res.victims[0], 70u);
    EXPECT_EQ(res.victims[1], 131u);
    EXPECT_EQ(res.victims[2], 200u);
    EXPECT_EQ(h.inFlightCount(), 0u);
}

TEST(HtmDirectoryEngine, SlotReuseAcrossTransactions)
{
    HtmConfig cfg;
    cfg.maxConcurrentTx = 2;
    HtmEngine h(cfg);
    // Serially run many transactions through the two slots; footprint
    // of a dead transaction must never leak into a successor that
    // reuses its slot.
    for (int round = 0; round < 50; ++round) {
        Tid a = 2 * round, b = 2 * round + 1;
        h.begin(a);
        h.access(a, 0x100, true);
        h.begin(b);
        EXPECT_TRUE(h.access(b, 0x200, false).victims.empty());
        h.commit(a);
        h.commit(b);
        // Slot fully recycled: no stale write bit aborts anyone.
        h.begin(a);
        EXPECT_TRUE(h.access(a, 0x200, true).victims.empty());
        h.commit(a);
    }
}

TEST(HtmDirectoryEngine, LastTxOutClearsViaEpochNotWalk)
{
    HtmEngine h;
    const LineDirectory *d = h.lineDirectory();
    ASSERT_NE(d, nullptr);
    h.begin(0);
    for (uint64_t line = 0; line < 8; ++line)
        h.access(0, line * mem::kLineSize, false);
    h.commit(0);
    // Sole transaction: commit takes the O(1) epoch clear, not the
    // per-line walk.
    EXPECT_EQ(d->stats().epochClears, 1u);
    EXPECT_EQ(d->stats().lineWalkClears, 0u);

    // Two in flight: the first closer walks its lines, the second
    // epoch-clears.
    h.begin(0);
    h.access(0, 0x100, false);
    h.access(0, 0x140, false);
    h.begin(1);
    h.access(1, 0x400, true);
    h.commit(0);
    EXPECT_EQ(d->stats().lineWalkClears, 2u);
    h.commit(1);
    EXPECT_EQ(d->stats().epochClears, 2u);
}

TEST(HtmDirectoryEngine, RejectsConfigsBeyondSlotLimit)
{
    // More in-flight transactions than one bitmask can carry used to
    // fall back to the legacy scan engine silently; with the scan
    // engine gone, such configs must fail loudly at construction.
    HtmConfig cfg;
    cfg.maxConcurrentTx = 65;
    EXPECT_DEATH(HtmEngine{cfg}, "maxConcurrentTx must be <= 64");
}
