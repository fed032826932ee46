/**
 * @file
 * Flight-recorder unit tests: ring semantics (wrap, oldest-first
 * windows, lazy per-thread growth), the enable gate, and the
 * forensics assembly helpers (footprints, last-writer chain).
 */

#include <gtest/gtest.h>

#include "telemetry/flightrec.hh"

using namespace txrace;
using telemetry::FlightRecorder;
using telemetry::ForensicsThread;
using telemetry::ForensicsWrite;
using telemetry::FrAbort;
using telemetry::FrBudget;
using telemetry::FrEvent;
using telemetry::FrKind;

TEST(FlightRec, DisabledRecordsNothing)
{
    FlightRecorder rec;
    EXPECT_FALSE(rec.ringEnabled());
    rec.note(0, FrKind::Access, 1, 7, 0x40, 1);
    EXPECT_EQ(rec.threads(), 0u);
    EXPECT_EQ(rec.offered(0), 0u);
    EXPECT_TRUE(rec.window(0).empty());
}

TEST(FlightRec, CompiledInMatchesBuildFlag)
{
    // The tier-1 suite builds with the recorder compiled in; the gate
    // is exercised by the TXRACE_FLIGHTREC=OFF CI configuration.
#ifdef TXRACE_NO_FLIGHTREC
    EXPECT_FALSE(FlightRecorder::kCompiledIn);
    FlightRecorder rec;
    rec.enableRing();
    EXPECT_FALSE(rec.ringEnabled());
#else
    EXPECT_TRUE(FlightRecorder::kCompiledIn);
    FlightRecorder rec;
    rec.enableRing();
    EXPECT_TRUE(rec.ringEnabled());
#endif
}

#ifndef TXRACE_NO_FLIGHTREC

TEST(FlightRec, WindowIsOldestFirst)
{
    FlightRecorder rec;
    rec.enableRing();
    for (uint64_t i = 0; i < 10; ++i)
        rec.note(0, FrKind::Access, /*step=*/100 + i, /*site=*/7,
                 /*arg=*/i);
    std::vector<FrEvent> window = rec.window(0);
    ASSERT_EQ(window.size(), 10u);
    for (uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(window[i].step, 100 + i);
        EXPECT_EQ(window[i].arg, i);
    }
}

TEST(FlightRec, RingWrapsKeepingNewest)
{
    FlightRecorder rec;
    rec.enableRing();
    const uint64_t total = FlightRecorder::kCapacity + 37;
    for (uint64_t i = 0; i < total; ++i)
        rec.note(0, FrKind::Access, i);
    EXPECT_EQ(rec.offered(0), total);
    std::vector<FrEvent> window = rec.window(0);
    ASSERT_EQ(window.size(), size_t(FlightRecorder::kCapacity));
    // The oldest retained event is total - kCapacity; newest last.
    EXPECT_EQ(window.front().step, total - FlightRecorder::kCapacity);
    EXPECT_EQ(window.back().step, total - 1);
    for (size_t i = 1; i < window.size(); ++i)
        EXPECT_EQ(window[i].step, window[i - 1].step + 1);
}

TEST(FlightRec, ThreadsGrowLazilyAndIndependently)
{
    FlightRecorder rec;
    rec.enableRing();
    rec.note(3, FrKind::TxBegin, 5);
    EXPECT_EQ(rec.threads(), 4u);
    EXPECT_EQ(rec.offered(3), 1u);
    EXPECT_EQ(rec.offered(0), 0u);
    rec.note(1, FrKind::TxCommit, 9, ~0u, 42);
    EXPECT_EQ(rec.offered(1), 1u);
    EXPECT_EQ(rec.window(1).front().arg, 42u);
    rec.clear();
    EXPECT_EQ(rec.offered(3), 0u);
    EXPECT_TRUE(rec.window(3).empty());
}

TEST(FlightRec, DrainThreadComputesFootprints)
{
    FlightRecorder rec;
    rec.enableRing();
    // Reads on granules 0x40, 0x80 (0x40 twice); write on 0x80, 0xc0.
    rec.note(2, FrKind::Access, 1, 10, 0x40, 0);
    rec.note(2, FrKind::Access, 2, 11, 0x80, 0);
    rec.note(2, FrKind::Access, 3, 12, 0x40, 0);
    rec.note(2, FrKind::Access, 4, 13, 0x80, 1);
    rec.note(2, FrKind::Access, 5, 14, 0xc0, 1);
    // Non-access events must not pollute the footprints.
    rec.note(2, FrKind::TxAbort, 6, 15,
             uint64_t(FrAbort::Conflict));
    ForensicsThread ft = telemetry::drainThread(rec, 2);
    EXPECT_EQ(ft.tid, 2u);
    EXPECT_EQ(ft.window.size(), 6u);
    EXPECT_EQ(ft.readGranules, (std::vector<uint64_t>{0x40, 0x80}));
    EXPECT_EQ(ft.writeGranules, (std::vector<uint64_t>{0x80, 0xc0}));
}

TEST(FlightRec, LastWriterChainStepOrderedAndCapped)
{
    FlightRecorder rec;
    rec.enableRing();
    // Thread 0 writes granule 0x40 at steps 3, 9; thread 1 at step 6.
    rec.note(0, FrKind::Access, 3, 100, 0x40, 1);
    rec.note(0, FrKind::Access, 9, 101, 0x40, 1);
    rec.note(1, FrKind::Access, 6, 200, 0x40, 1);
    // Reads and other granules are never writers.
    rec.note(1, FrKind::Access, 7, 201, 0x40, 0);
    rec.note(1, FrKind::Access, 8, 202, 0x80, 1);
    std::vector<ForensicsThread> threads = {
        telemetry::drainThread(rec, 0),
        telemetry::drainThread(rec, 1),
    };
    std::vector<ForensicsWrite> chain =
        telemetry::lastWriterChain(threads, 0x40);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0].step, 3u);
    EXPECT_EQ(chain[0].tid, 0u);
    EXPECT_EQ(chain[1].step, 6u);
    EXPECT_EQ(chain[1].tid, 1u);
    EXPECT_EQ(chain[2].step, 9u);
    EXPECT_EQ(chain[2].site, 101u);

    // The cap keeps the NEWEST entries.
    std::vector<ForensicsWrite> capped =
        telemetry::lastWriterChain(threads, 0x40, 2);
    ASSERT_EQ(capped.size(), 2u);
    EXPECT_EQ(capped.front().step, 6u);
    EXPECT_EQ(capped.back().step, 9u);
}

TEST(FlightRec, EventNamesAreStable)
{
    EXPECT_STREQ(telemetry::frKindName(FrKind::Access), "access");
    EXPECT_STREQ(telemetry::frKindName(FrKind::TxAbort), "tx_abort");
    EXPECT_STREQ(telemetry::frKindName(FrKind::Gov), "gov");
    EXPECT_STREQ(telemetry::frAbortName(FrAbort::Conflict),
                 "conflict");
    EXPECT_STREQ(telemetry::frAbortName(FrAbort::TxFail), "txfail");
    EXPECT_STREQ(telemetry::frAbortName(FrAbort::HwLimit), "hwlimit");
    EXPECT_STREQ(telemetry::frBudgetName(FrBudget::RegionGated),
                 "region_gated");
}

#endif // !TXRACE_NO_FLIGHTREC
