/**
 * @file
 * Unit tests for the per-thread version log behind the winner replay:
 * a full ring refuses the append (never silent truncation), a
 * conflict marks the window owed at its site (a second one extends
 * it), and beginTx, commitTx and clear drop the window and reset the
 * owed watermark.
 */

#include <gtest/gtest.h>

#include "core/versionlog.hh"

using namespace txrace;
using namespace txrace::core;

TEST(VersionLog, AppendsCarrySiteAndOrder)
{
    VersionLog vl(16);
    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 7, false));
    ASSERT_TRUE(vl.append(0, 0x140, 8, true));
    vl.markOwed(0, 0);

    auto win = vl.owedWindow(0);
    ASSERT_EQ(win.size(), 2u);
    EXPECT_EQ(win[0].addr, 0x100u);
    EXPECT_EQ(win[0].site, 7u);
    EXPECT_FALSE(win[0].isWrite);
    EXPECT_EQ(win[1].addr, 0x140u);
    EXPECT_EQ(win[1].site, 8u);
    EXPECT_TRUE(win[1].isWrite);
    EXPECT_EQ(vl.counters().entries, 2u);
}

TEST(VersionLog, RingFullRefusesInsteadOfTruncating)
{
    VersionLog vl(3);
    vl.beginTx(0);
    EXPECT_TRUE(vl.append(0, 0x000, 1, true));
    EXPECT_TRUE(vl.append(0, 0x040, 2, true));
    EXPECT_TRUE(vl.append(0, 0x080, 3, true));
    // The fourth append is refused — not dropped: the window keeps
    // exactly the three accepted entries, and the refusal is counted.
    EXPECT_FALSE(vl.append(0, 0x0c0, 4, true));
    EXPECT_EQ(vl.entryCount(0), 3u);
    EXPECT_EQ(vl.counters().ringOverflows, 1u);
    EXPECT_EQ(vl.counters().entries, 3u);
}

TEST(VersionLog, CommitDropsTheWindow)
{
    VersionLog vl(16);
    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 1, true));
    ASSERT_TRUE(vl.append(0, 0x140, 3, false));
    vl.markOwed(0, 3);
    vl.commitTx(0);

    // The committed window is gone, and so is the owed watermark: the
    // caller took the window before committing. A committed window
    // was not dropped unreplayed.
    EXPECT_EQ(vl.entryCount(0), 0u);
    EXPECT_TRUE(vl.owedWindow(0).empty());
    EXPECT_EQ(vl.counters().owedDropped, 0u);
    EXPECT_EQ(vl.counters().entries, 2u);

    // Another thread's window is its own.
    vl.beginTx(1);
    ASSERT_TRUE(vl.append(1, 0x108, 4, false));
    vl.markOwed(1, 4);
    ASSERT_EQ(vl.owedWindow(1).size(), 1u);
    EXPECT_EQ(vl.entryCount(0), 0u);
}

TEST(VersionLog, ConflictsSetAndExtendTheOwedWatermark)
{
    VersionLog vl(16);
    vl.beginTx(0);
    ASSERT_TRUE(vl.append(0, 0x100, 1, true));
    // Nothing is owed until the transaction wins a conflict.
    EXPECT_TRUE(vl.owedWindow(0).empty());

    ASSERT_TRUE(vl.append(0, 0x140, 2, true));
    vl.markOwed(0, 2);
    EXPECT_EQ(vl.owedSite(0), 2u);
    // Entries logged after the conflict are not owed...
    ASSERT_TRUE(vl.append(0, 0x180, 3, false));
    auto win = vl.owedWindow(0);
    ASSERT_EQ(win.size(), 2u);
    EXPECT_EQ(win[0].addr, 0x100u);
    EXPECT_EQ(win[1].addr, 0x140u);

    // ...until a second conflict extends the window over them: the
    // window stays one prefix, replayed once at commit.
    ASSERT_TRUE(vl.append(0, 0x1c0, 4, true));
    vl.markOwed(0, 4);
    EXPECT_EQ(vl.owedSite(0), 4u);
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
    ASSERT_TRUE(vl.append(0, 0x100, 1, true));
    vl.markOwed(0, 0);
    vl.beginTx(0);
    EXPECT_EQ(vl.entryCount(0), 0u);
    EXPECT_TRUE(vl.owedWindow(0).empty());

    // clear() drops without publishing (the transaction aborted), and
    // counts an owed window it drops; one with nothing owed is not.
    ASSERT_TRUE(vl.append(0, 0x140, 2, true));
    vl.clear(0);
    EXPECT_EQ(vl.counters().owedDropped, 0u);
    ASSERT_TRUE(vl.append(0, 0x140, 2, true));
    vl.markOwed(0, 0);
    vl.clear(0);
    EXPECT_EQ(vl.counters().owedDropped, 1u);
    EXPECT_EQ(vl.entryCount(0), 0u);
    EXPECT_TRUE(vl.owedWindow(0).empty());

    // A settled window was replayed, so clearing it drops nothing.
    ASSERT_TRUE(vl.append(0, 0x180, 3, true));
    vl.markOwed(0, 0);
    vl.settleOwed(0);
    vl.clear(0);
    EXPECT_EQ(vl.counters().owedDropped, 1u);

    // An unknown thread has an empty window, not UB.
    EXPECT_TRUE(vl.owedWindow(9).empty());
    EXPECT_EQ(vl.entryCount(9), 0u);
    vl.clear(9);
    EXPECT_EQ(vl.counters().owedDropped, 1u);
}
