/**
 * @file
 * Unit tests for address geometry and VirtualMemory.
 */

#include <gtest/gtest.h>

#include "mem/layout.hh"
#include "mem/memory.hh"

using namespace txrace;
using namespace txrace::mem;

TEST(Layout, LineMath)
{
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(lineOf(128), 2u);
    EXPECT_EQ(lineBase(2), 128u);
    EXPECT_EQ(kLineSize, 64u);
}

TEST(Layout, GranuleMath)
{
    EXPECT_EQ(granuleOf(0), 0u);
    EXPECT_EQ(granuleOf(7), 0u);
    EXPECT_EQ(granuleOf(8), 1u);
    EXPECT_EQ(kGranuleSize, 8u);
}

TEST(Layout, GranulesPerLine)
{
    EXPECT_EQ(kLineSize / kGranuleSize, 8u);
    // All eight granules of line 1 map back to line 1.
    for (Addr a = 64; a < 128; a += 8)
        EXPECT_EQ(lineOf(a), 1u);
}

TEST(Layout, FalseSharingPredicate)
{
    // Same line, different granules: false sharing.
    EXPECT_TRUE(falseSharing(64, 72));
    // Same granule: true sharing.
    EXPECT_FALSE(falseSharing(64, 67));
    // Different lines: no sharing at all.
    EXPECT_FALSE(falseSharing(64, 128));
}

TEST(VirtualMemory, UntouchedReadsZero)
{
    VirtualMemory m;
    EXPECT_EQ(m.load(0x1234), 0u);
    EXPECT_EQ(m.footprint(), 0u);
}

TEST(VirtualMemory, StoreLoadRoundTrip)
{
    VirtualMemory m;
    m.store(0x100, 42);
    EXPECT_EQ(m.load(0x100), 42u);
    EXPECT_EQ(m.footprint(), 1u);
}

TEST(VirtualMemory, GranuleAliasing)
{
    VirtualMemory m;
    m.store(0x100, 1);
    // Same 8-byte granule: overwrites.
    m.store(0x104, 2);
    EXPECT_EQ(m.load(0x100), 2u);
    // Different granule: independent.
    m.store(0x108, 3);
    EXPECT_EQ(m.load(0x100), 2u);
    EXPECT_EQ(m.load(0x108), 3u);
    EXPECT_EQ(m.footprint(), 2u);
}

TEST(VirtualMemory, ClearEmpties)
{
    VirtualMemory m;
    m.store(8, 9);
    m.clear();
    EXPECT_EQ(m.load(8), 0u);
    EXPECT_EQ(m.footprint(), 0u);
}

TEST(VirtualMemory, StoresAcrossManyPages)
{
    // One granule in each of 64 pages (4 KiB apart), written in an
    // interleaved order, each keeps its own value.
    VirtualMemory m;
    for (Addr page = 0; page < 64; ++page)
        m.store(((page * 37) % 64) * 4096 + 8, page + 1);
    for (Addr page = 0; page < 64; ++page)
        EXPECT_EQ(m.load(((page * 37) % 64) * 4096 + 8), page + 1);
    EXPECT_EQ(m.footprint(), 64u);
}

TEST(VirtualMemory, FarAddress)
{
    // Page numbers at and past 2^20 (4 GiB and up), which hand-built
    // programs without an address-space limit can reach.
    VirtualMemory m;
    const Addr far = Addr{1} << 32;
    const Addr farther = (Addr{1} << 40) + 0x18;
    m.store(far, 5);
    m.add(farther, 7);
    m.add(farther, 1);
    m.store(0x40, 3);
    EXPECT_EQ(m.load(far), 5u);
    EXPECT_EQ(m.load(farther), 8u);
    EXPECT_EQ(m.load(0x40), 3u);
    EXPECT_EQ(m.load(far + 8), 0u);
    EXPECT_EQ(m.load(far + 4096), 0u);
    EXPECT_EQ(m.footprint(), 3u);
}

TEST(VirtualMemory, FootprintCountsGranulesAcrossPages)
{
    // Granules are counted once each, zero-valued stores included,
    // whichever page holds them.
    VirtualMemory m;
    m.store(0, 0);
    m.store(4096, 1);
    m.add(4096, 2);
    m.add(8192 + 64, 0);
    m.store(Addr{1} << 36, 9);
    EXPECT_EQ(m.footprint(), 4u);
    m.store(4, 6);  // same granule as address 0
    EXPECT_EQ(m.footprint(), 4u);
}

TEST(VirtualMemory, ClearThenReuse)
{
    VirtualMemory m;
    m.store(8, 1);
    m.store(3 * 4096, 2);
    m.store(Addr{1} << 33, 3);
    m.clear();
    EXPECT_EQ(m.footprint(), 0u);
    EXPECT_EQ(m.load(8), 0u);
    EXPECT_EQ(m.load(3 * 4096), 0u);
    EXPECT_EQ(m.load(Addr{1} << 33), 0u);
    m.add(3 * 4096, 4);
    m.store(Addr{1} << 33, 5);
    EXPECT_EQ(m.load(3 * 4096), 4u);
    EXPECT_EQ(m.load(Addr{1} << 33), 5u);
    EXPECT_EQ(m.footprint(), 2u);
}

TEST(VirtualMemory, UntouchedPageBetweenTouchedOnes)
{
    // Pages 0 and 4 are written; pages 1-3 (and page 5, past the
    // last one written) read as zero and stay out of the footprint.
    VirtualMemory m;
    m.store(16, 1);
    m.store(4 * 4096 + 16, 2);
    for (Addr page = 1; page < 4; ++page)
        EXPECT_EQ(m.load(page * 4096 + 16), 0u);
    EXPECT_EQ(m.load(5 * 4096), 0u);
    EXPECT_EQ(m.load(16), 1u);
    EXPECT_EQ(m.load(4 * 4096 + 16), 2u);
    EXPECT_EQ(m.footprint(), 2u);
}
