/**
 * @file
 * Unit tests for the best-effort HTM model: conflict detection at
 * line granularity, requester-wins resolution, strong isolation,
 * capacity geometry, the concurrent-transaction limit, and abort
 * status reporting.
 */

#include <gtest/gtest.h>

#include "htm/htm.hh"

using namespace txrace;
using namespace txrace::htm;

namespace {

HtmConfig
smallConfig()
{
    HtmConfig cfg;
    cfg.l1Sets = 4;
    cfg.l1Ways = 2;
    cfg.readSetMaxLines = 8;
    cfg.maxConcurrentTx = 4;
    return cfg;
}

} // namespace

TEST(Htm, BeginCommitLifecycle)
{
    HtmEngine h;
    EXPECT_FALSE(h.inTx(0));
    h.begin(0);
    EXPECT_TRUE(h.inTx(0));
    EXPECT_EQ(h.inFlightCount(), 1u);
    h.commit(0);
    EXPECT_FALSE(h.inTx(0));
    EXPECT_EQ(h.inFlightCount(), 0u);
    EXPECT_EQ(h.counters().begins, 1u);
    EXPECT_EQ(h.counters().commits, 1u);
}

TEST(Htm, TracksReadAndWriteSets)
{
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, false);
    h.access(0, 0x140, false);
    h.access(0, 0x180, true);
    EXPECT_EQ(h.readSetLines(0), 2u);
    EXPECT_EQ(h.writeSetLines(0), 1u);
    // Repeat accesses to the same line do not grow the sets.
    h.access(0, 0x104, false);
    h.access(0, 0x184, true);
    EXPECT_EQ(h.readSetLines(0), 2u);
    EXPECT_EQ(h.writeSetLines(0), 1u);
}

TEST(Htm, WriteConflictsWithReaderTx)
{
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, false);  // 0 reads the line
    h.begin(1);
    auto res = h.access(1, 0x100, true);  // 1 writes it
    ASSERT_EQ(res.victims.size(), 1u);
    EXPECT_EQ(res.victims[0], 0u);
    // Requester wins: thread 1 stays transactional, thread 0 aborted.
    EXPECT_TRUE(h.inTx(1));
    EXPECT_FALSE(h.inTx(0));
    EXPECT_EQ(h.lastAbortStatus(0), kAbortConflict | kAbortRetry);
}

TEST(Htm, WriteConflictsWithWriterTx)
{
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, true);
    h.begin(1);
    auto res = h.access(1, 0x100, true);
    ASSERT_EQ(res.victims.size(), 1u);
    EXPECT_EQ(res.victims[0], 0u);
}

TEST(Htm, ReadConflictsOnlyWithWriterTx)
{
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, false);
    h.begin(1);
    // Read-read: no conflict.
    EXPECT_TRUE(h.access(1, 0x100, false).victims.empty());
    // Reading a line someone has written: conflict.
    h.access(0, 0x140, true);
    auto res = h.access(1, 0x140, false);
    ASSERT_EQ(res.victims.size(), 1u);
    EXPECT_EQ(res.victims[0], 0u);
}

TEST(Htm, ConflictIsLineGranular)
{
    // False sharing: different granules of one 64-byte line conflict.
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, true);
    h.begin(1);
    auto res = h.access(1, 0x108, true);  // same line, other granule
    EXPECT_EQ(res.victims.size(), 1u);
    // Different lines never conflict.
    h.begin(2);
    EXPECT_TRUE(h.access(2, 0x140, true).victims.empty());
}

TEST(Htm, StrongIsolationNonTransactionalRequester)
{
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, false);
    // Thread 1 is NOT in a transaction; its write still aborts 0.
    auto res = h.access(1, 0x100, true);
    ASSERT_EQ(res.victims.size(), 1u);
    EXPECT_EQ(res.victims[0], 0u);
    EXPECT_FALSE(h.inTx(1));
}

TEST(Htm, OneWriteAbortsAllConflictingTxs)
{
    // The TxFail protocol relies on a single non-transactional write
    // aborting every in-flight reader of the flag's line.
    HtmEngine h;
    for (Tid t = 0; t < 3; ++t) {
        h.begin(t);
        h.access(t, 0x40, false);
    }
    auto res = h.access(7, 0x40, true);
    EXPECT_EQ(res.victims.size(), 3u);
    EXPECT_EQ(h.inFlightCount(), 0u);
}

TEST(Htm, CommittedTxEscapesLaterConflict)
{
    HtmEngine h;
    h.begin(0);
    h.access(0, 0x100, false);
    h.commit(0);
    EXPECT_TRUE(h.access(1, 0x100, true).victims.empty());
}

TEST(Htm, NonTransactionalAccessersNeverConflictEachOther)
{
    HtmEngine h;
    EXPECT_TRUE(h.access(0, 0x100, true).victims.empty());
    EXPECT_TRUE(h.access(1, 0x100, true).victims.empty());
}

TEST(Htm, WriteCapacityPerSetAssociativity)
{
    // 4 sets x 2 ways: the third distinct write line mapping to one
    // set overflows.
    HtmEngine h(smallConfig());
    h.begin(0);
    // Lines 0, 4, 8 all map to set 0 (line % 4).
    EXPECT_FALSE(h.access(0, 0 * 64, true).selfCapacity);
    EXPECT_FALSE(h.access(0, 4 * 64, true).selfCapacity);
    auto res = h.access(0, 8 * 64, true);
    EXPECT_TRUE(res.selfCapacity);
    EXPECT_FALSE(h.inTx(0));
    EXPECT_EQ(h.lastAbortStatus(0), kAbortCapacity);
    EXPECT_EQ(h.counters().abortsCapacity, 1u);
}

TEST(Htm, WritesToDistinctSetsDoNotOverflow)
{
    HtmEngine h(smallConfig());
    h.begin(0);
    // Lines 0..3 map to distinct sets; two rounds fill every way.
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_FALSE(h.access(0, line * 64, true).selfCapacity);
    EXPECT_TRUE(h.inTx(0));
}

TEST(Htm, ReadSetCapacityIsTotalLines)
{
    HtmEngine h(smallConfig());
    h.begin(0);
    for (uint64_t line = 0; line < 8; ++line)
        EXPECT_FALSE(h.access(0, line * 64, false).selfCapacity);
    auto res = h.access(0, 8 * 64, false);
    EXPECT_TRUE(res.selfCapacity);
    EXPECT_EQ(h.lastAbortStatus(0), kAbortCapacity);
}

TEST(Htm, CapacityAbortProducesNoVictims)
{
    HtmEngine h(smallConfig());
    h.begin(1);
    h.access(1, 8 * 64, false);  // 1 reads the line that will overflow 0
    h.begin(0);
    for (uint64_t line = 0; line < 2; ++line)
        h.access(0, line * 256, true);  // fill set 0 (lines 0 and 4)
    auto res = h.access(0, 8 * 64, true);
    EXPECT_TRUE(res.selfCapacity);
    EXPECT_TRUE(res.victims.empty());
    EXPECT_TRUE(h.inTx(1));
}

TEST(Htm, ConcurrentTransactionLimit)
{
    HtmConfig cfg;
    cfg.maxConcurrentTx = 2;
    HtmEngine h(cfg);
    h.begin(0);
    h.begin(1);
    EXPECT_FALSE(h.canBegin());
    h.commit(0);
    EXPECT_TRUE(h.canBegin());
}

TEST(Htm, ExplicitAbortRecordsStatus)
{
    HtmEngine h;
    h.begin(0);
    h.abortTx(0, 0);  // unknown
    EXPECT_TRUE(isUnknownAbort(h.lastAbortStatus(0)));
    EXPECT_EQ(h.counters().abortsUnknown, 1u);
}

TEST(HtmDeathTest, DoubleBeginPanics)
{
    HtmEngine h;
    h.begin(0);
    EXPECT_DEATH(h.begin(0), "already transactional");
}

TEST(HtmDeathTest, CommitWithoutBeginPanics)
{
    HtmEngine h;
    EXPECT_DEATH(h.commit(0), "not transactional");
}

TEST(HtmDeathTest, BeginBeyondLimitPanics)
{
    HtmConfig cfg;
    cfg.maxConcurrentTx = 1;
    HtmEngine h(cfg);
    h.begin(0);
    EXPECT_DEATH(h.begin(1), "limit");
}

TEST(HtmDeathTest, BadGeometryFatals)
{
    HtmConfig cfg;
    cfg.l1Sets = 3;  // not a power of two
    EXPECT_EXIT(HtmEngine{cfg}, testing::ExitedWithCode(1),
                "power of two");
}

TEST(AbortStatus, ToString)
{
    EXPECT_EQ(abortToString(0), "unknown");
    EXPECT_EQ(abortToString(kAbortConflict | kAbortRetry),
              "retry|conflict");
    EXPECT_EQ(abortToString(kAbortCapacity), "capacity");
    EXPECT_EQ(abortToString(kAbortDebug), "debug");
    EXPECT_EQ(abortToString(kAbortNested), "nested");
    EXPECT_EQ(abortToString(kAbortExplicit), "explicit");
}

