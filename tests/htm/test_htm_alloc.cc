/**
 * @file
 * Steady-state allocation test for the HTM hot path.
 *
 * The directory engine's begin/access/commit cycle must be heap-free
 * once warmed up: slots come from a bitmask, line footprints reuse
 * per-thread vectors, the directory only grows (and is pre-warmed by
 * the warmup rounds), and occupancy tracking is epoch-stamped instead
 * of reallocated. A global operator new/delete counter proves it — a
 * regression that reintroduces per-transaction churn (the old
 * setOccupancy.assign() on every begin, or per-access node allocation)
 * fails here, not in a profiler three PRs later.
 *
 * This binary intentionally does NOT link gtest_main-with-threads
 * extras; the counter is not thread-safe and the test is
 * single-threaded by construction.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "htm/htm.hh"
#include "mem/layout.hh"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

namespace {

using namespace txrace;
using namespace txrace::htm;

/** Allocations observed while running @p fn. */
template <typename Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(HtmAllocation, WarmSteadyStateIsHeapFree)
{
    HtmConfig cfg;
    HtmEngine h(cfg);

    constexpr int kThreads = 8;
    constexpr int kLinesPerThread = 16;
    auto oneRound = [&] {
        for (Tid t = 0; t < kThreads; ++t)
            h.begin(t);
        for (Tid t = 0; t < kThreads; ++t) {
            // Disjoint per-thread regions: conflict-free.
            uint64_t base = (t + 1) * 0x10000;
            for (int l = 0; l < kLinesPerThread; ++l)
                h.access(t, base + l * mem::kLineSize, l % 4 == 0);
        }
        for (Tid t = 0; t < kThreads; ++t)
            h.commit(t);
    };

    // Warm up: sizes the directory, the per-thread line lists, the
    // occupancy arrays, and the tid->state map.
    for (int i = 0; i < 3; ++i)
        oneRound();

    EXPECT_EQ(allocationsDuring([&] {
        for (int i = 0; i < 100; ++i)
            oneRound();
    }), 0u) << "begin/access/commit steady state must not allocate";
}

TEST(HtmAllocation, ConflictAbortPathAllocatesOnlyTheVictimList)
{
    HtmConfig cfg;
    HtmEngine h(cfg);

    size_t victimTotal = 0;
    auto oneRound = [&] {
        for (Tid t = 0; t < 4; ++t) {
            h.begin(t);
            h.access(t, 0x4000, false);  // shared line
        }
        // Non-transactional write aborts all four readers.
        victimTotal += h.access(99, 0x4000, true).victims.size();
    };

    for (int i = 0; i < 3; ++i)
        oneRound();
    victimTotal = 0;

    uint64_t allocs = allocationsDuring([&] {
        for (int i = 0; i < 100; ++i)
            oneRound();
    });
    EXPECT_EQ(victimTotal, 400u);
    // The AccessResult::victims vector the caller receives is the only
    // thing allowed to allocate (growth to 4 elements); the engine's
    // own abort processing — slot release, line-list walk, directory
    // bit clears — must be heap-free.
    EXPECT_LE(allocs, 400u) << "conflict abort internals are churning";
}

TEST(HtmAllocation, HeldLineAccessPathIsHeapFree)
{
    // Repeat accesses to lines the transaction already holds probe the
    // directory and find their own bit; neither that probe nor the
    // occEpoch-based occupancy reset across begin/commit rounds may
    // allocate.
    HtmEngine h;

    auto oneRound = [&] {
        for (Tid t = 0; t < 4; ++t)
            h.begin(t);
        for (int rep = 0; rep < 8; ++rep)
            for (Tid t = 0; t < 4; ++t)
                for (int l = 0; l < 4; ++l)
                    h.access(t, (t + 1) * 0x10000 + l * mem::kLineSize,
                             rep % 2 == 0);
        for (Tid t = 0; t < 4; ++t)
            h.commit(t);
    };
    for (int i = 0; i < 3; ++i)
        oneRound();
    const uint64_t probesBefore =
        h.lineDirectory()->stats().probeLen.count();

    EXPECT_EQ(allocationsDuring([&] {
        for (int i = 0; i < 100; ++i)
            oneRound();
    }), 0u) << "held-line access path must not allocate";
    // Each round probes once per access (4 txs x 8 reps x 4 lines)
    // and once per line its first three commits walk (3 x 4); the
    // last commit clears the directory by epoch bump.
    EXPECT_EQ(h.lineDirectory()->stats().probeLen.count() - probesBefore,
              100u * (128u + 12u));
}

} // namespace
