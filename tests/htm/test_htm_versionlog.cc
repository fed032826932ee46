/**
 * @file
 * Unit tests for the per-thread version log behind the winner replay:
 * ring-overflow surfaces as a capacity abort (never silent
 * truncation), versions publish at commit, a conflict marks the
 * window owed (a second one extends it), and beginTx, commitTx and
 * clear reset the owed watermark.
 */

#include <gtest/gtest.h>

#include "htm/htm.hh"
#include "htm/versionlog.hh"

using namespace txrace;
using namespace txrace::htm;

namespace {

HtmConfig
loggingConfig(uint32_t ring_entries)
{
    HtmConfig cfg;
    cfg.versionLog = true;
    cfg.versionLogEntries = ring_entries;
    return cfg;
}

} // namespace

TEST(VersionLog, AppendsCarrySiteStepAndOrder)
{
    VersionLog vl(16);
    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 7, 10, false));
    ASSERT_TRUE(vl.append(0, 0x140, 8, 11, true));
    vl.markOwed(0);

    auto win = vl.owedWindow(0);
    ASSERT_EQ(win.size(), 2u);
    EXPECT_EQ(win[0].addr, 0x100u);
    EXPECT_EQ(win[0].site, 7u);
    EXPECT_EQ(win[0].step, 10u);
    EXPECT_EQ(win[0].tid, 0u);
    EXPECT_FALSE(win[0].isWrite);
    EXPECT_TRUE(win[1].isWrite);
    EXPECT_EQ(vl.counters().entries, 2u);
}

TEST(VersionLog, RingFullRefusesInsteadOfTruncating)
{
    VersionLog vl(3);
    vl.beginTx(0);
    EXPECT_TRUE(vl.append(0, 0x000, 1, 1, true));
    EXPECT_TRUE(vl.append(0, 0x040, 2, 2, true));
    EXPECT_TRUE(vl.append(0, 0x080, 3, 3, true));
    // The fourth append is refused — not dropped: the window keeps
    // exactly the three accepted entries, and the refusal is counted.
    EXPECT_FALSE(vl.append(0, 0x0c0, 4, 4, true));
    EXPECT_EQ(vl.entryCount(0), 3u);
    EXPECT_EQ(vl.counters().ringOverflows, 1u);
    EXPECT_EQ(vl.counters().entries, 3u);
}

TEST(VersionLog, CommitPublishesVersionsForWrittenLinesOnly)
{
    VersionLog vl(16);
    const uint64_t line_a = mem::lineOf(0x100);
    const uint64_t line_b = mem::lineOf(0x140);
    EXPECT_EQ(vl.versionOf(line_a), 0u);

    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 1, 1, true));   // write a
    ASSERT_TRUE(vl.append(0, 0x104, 2, 2, true));   // write a again
    ASSERT_TRUE(vl.append(0, 0x140, 3, 3, false));  // read b
    vl.markOwed(0);
    vl.commitTx(0);

    // Every logged write bumps its line (seqlock-style stamp); reads
    // publish nothing, and the committed window is gone.
    EXPECT_EQ(vl.versionOf(line_a), 2u);
    EXPECT_EQ(vl.versionOf(line_b), 0u);
    EXPECT_EQ(vl.counters().published, 2u);
    EXPECT_EQ(vl.entryCount(0), 0u);
    // Commit resets the owed watermark: the caller took the window
    // before committing, and nothing is owed afterwards.
    EXPECT_TRUE(vl.owedWindow(0).empty());
    EXPECT_EQ(vl.counters().owedDropped, 0u);

    // A later transaction's entries stamp the published version.
    vl.beginTx(1);
    ASSERT_TRUE(vl.append(1, 0x108, 4, 5, false));
    vl.markOwed(1);
    auto win = vl.owedWindow(1);
    ASSERT_EQ(win.size(), 1u);
    EXPECT_EQ(win[0].version, 2u);
}

TEST(VersionLog, ConflictsSetAndExtendTheOwedWatermark)
{
    VersionLog vl(16);
    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 1, 1, true));
    // Nothing is owed until the transaction wins a conflict.
    EXPECT_TRUE(vl.owedWindow(0).empty());

    ASSERT_TRUE(vl.append(0, 0x140, 2, 2, true));
    vl.markOwed(0);
    // Entries logged after the conflict are not owed...
    ASSERT_TRUE(vl.append(0, 0x180, 3, 3, false));
    auto win = vl.owedWindow(0);
    ASSERT_EQ(win.size(), 2u);
    EXPECT_EQ(win[0].addr, 0x100u);
    EXPECT_EQ(win[1].addr, 0x140u);

    // ...until a second conflict extends the window over them: the
    // window stays one prefix, replayed once at commit.
    ASSERT_TRUE(vl.append(0, 0x1c0, 4, 4, true));
    vl.markOwed(0);
    win = vl.owedWindow(0);
    ASSERT_EQ(win.size(), 4u);
    EXPECT_EQ(win[3].addr, 0x1c0u);
    EXPECT_EQ(win[3].site, 4u);

    // Settling (a replay outside a commit) clears the watermark but
    // keeps the entries for the rest of the transaction.
    vl.settleOwed(0);
    EXPECT_TRUE(vl.owedWindow(0).empty());
    EXPECT_EQ(vl.entryCount(0), 4u);
}

TEST(VersionLog, BeginTxAndClearDropTheWindow)
{
    VersionLog vl(16);
    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 1, 1, true));
    vl.markOwed(0);
    vl.beginTx(0);
    EXPECT_EQ(vl.entryCount(0), 0u);
    EXPECT_TRUE(vl.owedWindow(0).empty());

    // clear() drops without publishing (the transaction aborted), and
    // counts an owed window it drops; one with nothing owed is not.
    ASSERT_TRUE(vl.append(0, 0x140, 2, 2, true));
    vl.clear(0);
    EXPECT_EQ(vl.counters().owedDropped, 0u);
    ASSERT_TRUE(vl.append(0, 0x140, 2, 2, true));
    vl.markOwed(0);
    vl.clear(0);
    EXPECT_EQ(vl.counters().owedDropped, 1u);
    EXPECT_EQ(vl.entryCount(0), 0u);
    EXPECT_TRUE(vl.owedWindow(0).empty());
    EXPECT_EQ(vl.versionOf(mem::lineOf(0x140)), 0u);

    // A settled window was replayed, so clearing it drops nothing.
    ASSERT_TRUE(vl.append(0, 0x180, 3, 3, true));
    vl.markOwed(0);
    vl.settleOwed(0);
    vl.clear(0);
    EXPECT_EQ(vl.counters().owedDropped, 1u);

    // An unknown thread has an empty window, not UB.
    EXPECT_TRUE(vl.owedWindow(9).empty());
    EXPECT_EQ(vl.entryCount(9), 0u);
    vl.clear(9);
    EXPECT_EQ(vl.counters().owedDropped, 1u);
}

TEST(VersionLog, EngineAbortsWithCapacityWhenTheRingFills)
{
    HtmEngine h(loggingConfig(2));
    h.begin(0);
    EXPECT_TRUE(h.logAccess(0, 0x100, 1, 1, true));
    EXPECT_TRUE(h.logAccess(0, 0x140, 2, 2, true));
    // Third entry overflows the two-entry ring: the engine aborts the
    // transaction with a capacity status, exactly like an overflowing
    // write set — the window is never silently truncated.
    EXPECT_FALSE(h.logAccess(0, 0x180, 3, 3, true));
    EXPECT_FALSE(h.inTx(0));
    EXPECT_EQ(h.lastAbortStatus(0) & kAbortCapacity, kAbortCapacity);
    EXPECT_EQ(h.counters().abortsCapacity, 1u);
    ASSERT_NE(h.versionLog(), nullptr);
    EXPECT_EQ(h.versionLog()->counters().ringOverflows, 1u);
}

TEST(VersionLog, EngineDoesNotChargeTheLogAgainstWriteSetCapacity)
{
    // A ring far larger than the write set: logging every access must
    // not move the L1-shaped capacity boundary. With 4 sets x 2 ways
    // the 9th distinct written line overflows whether or not each
    // access was also logged.
    HtmConfig cfg = loggingConfig(4096);
    cfg.l1Sets = 4;
    cfg.l1Ways = 2;
    HtmEngine h(cfg);
    h.begin(0);
    for (uint64_t i = 0; i < 8; ++i) {
        ir::Addr a = static_cast<ir::Addr>(0x40 * i);
        ASSERT_TRUE(h.logAccess(0, a, 1, i, true));
        ASSERT_FALSE(h.access(0, a, true).selfCapacity) << i;
    }
    EXPECT_TRUE(h.inTx(0));
    EXPECT_TRUE(h.access(0, 0x40 * 8, true).selfCapacity);
    EXPECT_EQ(h.lastAbortStatus(0) & kAbortCapacity, kAbortCapacity);
}

TEST(VersionLog, CommitThroughTheEnginePublishesAndResets)
{
    HtmEngine h(loggingConfig(16));
    h.begin(0);
    ASSERT_TRUE(h.logAccess(0, 0x100, 1, 1, true));
    h.commit(0);
    ASSERT_NE(h.versionLog(), nullptr);
    EXPECT_EQ(h.versionLog()->versionOf(mem::lineOf(0x100)), 1u);

    // reset() forgets published versions with the rest of the state.
    h.reset();
    EXPECT_EQ(h.versionLog()->versionOf(mem::lineOf(0x100)), 0u);
    EXPECT_EQ(h.versionLog()->counters().entries, 0u);
}
