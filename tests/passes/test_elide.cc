/**
 * @file
 * Unit tests for the static access-elision pipeline (passes/elide.cc):
 * pre-spawn and never-written load elision, the thread-disjointness
 * (privatization) analysis with its slot-family safety conditions,
 * the lockset rule (groups one mutex always guards), bare-region
 * marking, elision statistics, and the structural guarantee
 * underpinning the soundness contract — elision only clears
 * `instrumented` bits and sets bare-region marks, it never changes
 * the instruction stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "ir/builder.hh"
#include "mem/layout.hh"
#include "passes/passes.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::ir;
using namespace txrace::passes;

namespace {

/** The instruction carrying @p tag (asserts it is unique). */
const Instruction &
byTag(const Program &p, const std::string &tag)
{
    const Instruction *found = nullptr;
    for (FuncId f = 0; f < p.numFunctions(); ++f) {
        for (const Instruction &ins : p.function(f).body) {
            if (ins.tag == tag) {
                EXPECT_EQ(found, nullptr) << "duplicate tag " << tag;
                found = &ins;
            }
        }
    }
    EXPECT_NE(found, nullptr) << "tag not found: " << tag;
    return *found;
}

/** A main that spawns @p worker once and joins it: the worker's
 *  accesses come after a spawn, so the pre-spawn rule leaves them to
 *  the pass under test. */
void
spawnOnce(ProgramBuilder &b, FuncId worker)
{
    b.beginFunction("main");
    b.spawn(worker);
    b.joinAll();
    b.endFunction();
}

} // namespace

TEST(Elide, ReadOnlyElidesNeverWrittenLoads)
{
    // No store anywhere reaches the table, so no race can have a
    // load of it as an endpoint: every such load is elided.
    ProgramBuilder b;
    Addr table = b.alloc("table", 1024, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::randomIn(table, 16, 64), "lookup");
    b.loop(4, [&] { b.load(AddrExpr::perIter(table, 8), "scan"); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.readOnly, 2u);
    EXPECT_EQ(stats.elided(), 2u);
    EXPECT_FALSE(byTag(p, "lookup").instrumented);
    EXPECT_FALSE(byTag(p, "scan").instrumented);
}

TEST(Elide, ReadOnlyKeptByAStoreInAnotherFunction)
{
    // The store that makes the load racy lives in a different
    // function from the load: whole-program footprints still see it.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId reader = b.beginFunction("reader");
    b.load(AddrExpr::absolute(x), "rd");
    b.endFunction();
    FuncId writer = b.beginFunction("writer");
    b.store(AddrExpr::absolute(x), "wr");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(reader, 2);
    b.spawn(writer, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.readOnly, 0u);
    EXPECT_TRUE(byTag(p, "rd").instrumented);
    EXPECT_TRUE(byTag(p, "wr").instrumented);
}

TEST(Elide, ReadOnlyElidesLoadsOnlyAPreSpawnStoreWrites)
{
    // `main`'s initialization before the spawn precedes every worker,
    // so its stores are elided and join no footprint: the workers'
    // loads of the initialized data are never written by anything
    // that can race, and are elided too.
    ProgramBuilder b;
    Addr model = b.alloc("model", 256, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(model + 64), "rd");
    b.endFunction();
    b.beginFunction("main");
    b.loop(4, [&] { b.store(AddrExpr::perIter(model, 64), "init"); });
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.preSpawn, 1u);
    EXPECT_EQ(stats.readOnly, 1u);
    EXPECT_FALSE(byTag(p, "init").instrumented);
    EXPECT_FALSE(byTag(p, "rd").instrumented);
}

TEST(Elide, ReadOnlyKeptByAStoreAfterTheSpawn)
{
    // The same store made once the workers run can race with their
    // loads: it stays checked, and so do they.
    ProgramBuilder b;
    Addr model = b.alloc("model", 256, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(model + 64), "rd");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.loop(4, [&] { b.store(AddrExpr::perIter(model, 64), "update"); });
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.preSpawn, 0u);
    EXPECT_EQ(stats.readOnly, 0u);
    EXPECT_TRUE(byTag(p, "update").instrumented);
    EXPECT_TRUE(byTag(p, "rd").instrumented);
}

TEST(Elide, PreSpawnEndsAtTheOutermostLoopAroundTheFirstSpawn)
{
    // A later trip of a loop that spawns runs after the spawn, so the
    // cut-off is that loop's begin, even with the create nested.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(x), "rd");
    b.endFunction();
    b.beginFunction("main");
    b.store(AddrExpr::absolute(x), "before");
    b.loop(2, [&] {
        b.store(AddrExpr::absolute(x + 8), "in loop");
        b.loop(2, [&] { b.spawn(worker); });
    });
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.preSpawn, 1u);
    EXPECT_FALSE(byTag(p, "before").instrumented);
    EXPECT_TRUE(byTag(p, "in loop").instrumented);
}

TEST(Elide, PreSpawnCoversAProgramThatNeverSpawns)
{
    // With no other thread, every access of `main` is pre-spawn.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.store(AddrExpr::absolute(x), "s");
    b.loop(3, [&] { b.load(AddrExpr::absolute(x), "l"); });
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.preSpawn, 2u);
    EXPECT_EQ(stats.elided(), 2u);
}

TEST(Elide, PreSpawnNeedsAnEntryNoThreadRuns)
{
    // A thread that runs the entry function itself repeats its
    // "pre-spawn" accesses concurrently with the rest of main: the
    // rule does not apply.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    FuncId main_fn = b.beginFunction("main");
    b.store(AddrExpr::absolute(x), "s");
    Instruction create;
    create.op = OpCode::ThreadCreate;
    create.arg0 = main_fn;
    b.raw(create);
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.preSpawn, 0u);
    EXPECT_TRUE(byTag(p, "s").instrumented);
}

TEST(Elide, ReadOnlyBlockedByAnUnanalyzableStore)
{
    // A loop-indexed store outside any loop has no bounded footprint:
    // it may write anywhere, so no load is provably never written.
    ProgramBuilder b;
    Addr a = b.alloc("a", 64, 64);
    Addr far = b.alloc("far", 64, 4096);
    AddrExpr wild = AddrExpr::perIter(a, 8);
    FuncId worker = b.beginFunction("worker");
    b.store(wild, "wild");
    b.load(AddrExpr::absolute(far), "far rd");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.load(AddrExpr::absolute(a), "a rd");
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.readOnly, 0u);
    EXPECT_TRUE(byTag(p, "far rd").instrumented);
    EXPECT_TRUE(byTag(p, "a rd").instrumented);
}

TEST(Elide, ReadOnlyNeedsAThreadBound)
{
    // Transitive spawning defeats the thread bound, and without it
    // no footprint is bounded: the pass stands down.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId leaf = b.beginFunction("leaf");
    b.load(AddrExpr::absolute(x), "rd");
    b.endFunction();
    b.beginFunction("mid");
    b.spawn(leaf, 2);
    b.joinAll();
    b.endFunction();
    b.beginFunction("main");
    b.spawn(1, 2);  // spawns "mid", which spawns again
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.readOnly, 0u);
    EXPECT_TRUE(byTag(p, "rd").instrumented);
}

TEST(Elide, ReadOnlyCountIsExact)
{
    // A per-thread store over 1 root + 4 workers covers granules
    // [slots, slots + 5G). Loads inside that interval stay, down to
    // a byte inside its last granule; the load of the next granule
    // and the loads of the unwritten table go.
    constexpr uint64_t G = mem::kGranuleSize;
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 8 * G, 64);
    Addr table = b.alloc("table", 256, 64);
    FuncId worker = b.beginFunction("worker");
    b.store(AddrExpr::perThread(slots, G), "own");
    b.syscall(1);  // keep the loads out of the store's RAW segment
    b.load(AddrExpr::absolute(slots), "first slot");
    b.load(AddrExpr::absolute(slots + 4 * G), "last slot");
    b.load(AddrExpr::absolute(slots + 4 * G + G / 2), "inside last slot");
    b.load(AddrExpr::absolute(slots + 5 * G), "past the slots");
    b.load(AddrExpr::absolute(table), "table a");
    b.load(AddrExpr::absolute(table + 128), "table b");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.load(AddrExpr::absolute(table + 64), "table c");
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.candidates, 8u);
    EXPECT_EQ(stats.readOnly, 4u);
    EXPECT_EQ(stats.elided(), 4u);
    EXPECT_TRUE(byTag(p, "own").instrumented);
    EXPECT_TRUE(byTag(p, "first slot").instrumented);
    EXPECT_TRUE(byTag(p, "last slot").instrumented);
    EXPECT_TRUE(byTag(p, "inside last slot").instrumented);
    EXPECT_FALSE(byTag(p, "past the slots").instrumented);
    EXPECT_FALSE(byTag(p, "table a").instrumented);
    EXPECT_FALSE(byTag(p, "table b").instrumented);
    EXPECT_FALSE(byTag(p, "table c").instrumented);
    ASSERT_EQ(stats.perFunction.size(), 2u);
    EXPECT_EQ(stats.perFunction[0].second, 3u);
    EXPECT_EQ(stats.perFunction[1].second, 1u);
}

TEST(Elide, PrivatizationElidesDisjointSlotFamily)
{
    // Granule-aligned per-thread slots, every access contained in its
    // own slot: no two threads can ever touch a common granule, so
    // the whole family is elided.
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::perThread(slots, mem::kGranuleSize), "own rd");
    b.store(AddrExpr::perThread(slots, mem::kGranuleSize), "own");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 2u);
    EXPECT_FALSE(byTag(p, "own").instrumented);
    EXPECT_FALSE(byTag(p, "own rd").instrumented);
}

TEST(Elide, PrivatizationCountsRepeatedSlotAccesses)
{
    // Repeated accesses with one address expression, opcode and tag,
    // and a load right behind a store to the same slot: every one of
    // them stays in the slot family, so the family's sweep elides and
    // counts all four.
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 64, 64);
    FuncId worker = b.beginFunction("worker");
    for (int rep = 0; rep < 2; ++rep) {
        b.store(AddrExpr::perThread(slots, mem::kGranuleSize), "own");
        b.load(AddrExpr::perThread(slots, mem::kGranuleSize), "own rd");
    }
    b.endFunction();
    spawnOnce(b, worker);
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.candidates, 4u);
    EXPECT_EQ(stats.privatized, 4u);
    EXPECT_EQ(stats.elided(), 4u);
    for (const Instruction &ins : p.function(worker).body)
        EXPECT_FALSE(ins.instrumented) << ins.tag;
}

TEST(Elide, PrivatizationBlockedByOverlappingAbsoluteAccess)
{
    // An absolute store into the slot range overlaps every thread's
    // slot; the family is no longer provably disjoint and every
    // member must stay instrumented.
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.store(AddrExpr::perThread(slots, mem::kGranuleSize), "own");
    b.store(AddrExpr::absolute(slots + mem::kGranuleSize),
            "intruder");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 0u);
    EXPECT_TRUE(byTag(p, "own").instrumented);
    EXPECT_TRUE(byTag(p, "intruder").instrumented);
}

TEST(Elide, PrivatizationBlockedByUnalignedStride)
{
    // A sub-granule stride packs two threads' slots into one granule
    // (the false-sharing idiom): per-thread footprints share granules
    // and the detector must keep watching them.
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.store(AddrExpr::perThread(slots, mem::kGranuleSize / 2),
            "packed");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 0u);
    EXPECT_TRUE(byTag(p, "packed").instrumented);
}

TEST(Elide, PrivatizationBlockedByTransitiveSpawning)
{
    // Thread creation outside the entry function defeats the static
    // thread bound; without a bound the footprint intervals are
    // unbounded and the pass must stand down entirely.
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 16 * 64, 64);
    FuncId leaf = b.beginFunction("leaf");
    b.store(AddrExpr::perThread(slots, mem::kGranuleSize), "own");
    b.endFunction();
    b.beginFunction("mid");
    b.spawn(leaf, 2);
    b.joinAll();
    b.endFunction();
    b.beginFunction("main");
    b.spawn(1, 2);  // spawns "mid", which spawns again
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 0u);
    EXPECT_TRUE(byTag(p, "own").instrumented);
}

namespace {

/** One store of a slot-family test program, in its own loop of
 *  @p trips trips (so no two members share an elision segment). */
struct SlotMember
{
    AddrExpr addr;
    uint64_t trips = 1;
};

/** A program whose @p workers workers each run @p members, with the
 *  address space padded so its first free byte is @p first_free. */
Program
slotProgram(uint64_t first_free, const std::vector<SlotMember> &members,
            uint64_t workers)
{
    ProgramBuilder b;
    // The builder hands out addresses from 64 up.
    if (first_free > 64)
        b.alloc("pad", first_free - 64, 1);
    b.alloc("slots", 1 << 16, 1);
    FuncId worker = b.beginFunction("worker");
    for (size_t i = 0; i < members.size(); ++i)
        b.loop(members[i].trips, [&] {
            b.store(members[i].addr, "m" + std::to_string(i));
        });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, workers);
    b.joinAll();
    b.endFunction();
    return b.build();
}

/** facesim's mesh access: base + tid*2048 + rnd(256)*8. */
AddrExpr
meshAccess(Addr base)
{
    AddrExpr e = AddrExpr::randomIn(base, 256, 8);
    e.threadStride = 2048;
    return e;
}

} // namespace

TEST(Elide, PrivatizationMeasuresSlotPhaseFromTheGroupOrigin)
{
    // facesim's mesh geometry: base 5248 sits 1152 bytes into a
    // 2048-byte slot counted from address 0, so its 2048-byte reach
    // crosses that slot's end. Counted from the mesh's own start,
    // every thread keeps to its own slot.
    constexpr Addr kMesh = 5248;
    ProgramBuilder b;
    b.alloc("pad", kMesh - 64, 1);
    ASSERT_EQ(b.alloc("face-mesh", 5 * 2048, 8), kMesh);
    FuncId worker = b.beginFunction("worker");
    b.loop(6, [&] {
        b.load(meshAccess(kMesh), "node rd");
        b.store(meshAccess(kMesh), "node wr");
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.load(meshAccess(kMesh), "main node rd");
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 3u);
    for (const char *tag : {"node rd", "node wr", "main node rd"}) {
        EXPECT_FALSE(byTag(p, tag).instrumented) << tag;
    }
}

TEST(Elide, PrivatizationKeepsMembersAtDifferentSlotPhases)
{
    // The second member starts one slot past the origin: thread t's
    // m1 touches what thread t+1's m0 does.
    Program p = slotProgram(
        96, {{AddrExpr::perThread(96, 64)}, {AddrExpr::perThread(160, 64)}},
        3);
    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 0u);
    EXPECT_TRUE(byTag(p, "m0").instrumented);
    EXPECT_TRUE(byTag(p, "m1").instrumented);
}

TEST(Elide, PrivatizationKeepsAMemberCrossingASlotBoundary)
{
    // Slots count from the origin, 96. m1 starts 32 bytes into the
    // first one, and its last random pick reaches byte 167, a granule
    // into the next thread's slot.
    AddrExpr crossing = AddrExpr::randomIn(128, 5, 8);
    crossing.threadStride = 64;
    Program p = slotProgram(96, {{AddrExpr::perThread(96, 64)}, {crossing}},
                            3);
    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 0u);
    EXPECT_TRUE(byTag(p, "m1").instrumented);

    // One pick fewer and it ends at the slot's last byte, 159.
    crossing.randomCount = 4;
    p = slotProgram(96, {{AddrExpr::perThread(96, 64)}, {crossing}}, 3);
    EXPECT_EQ(elide(p).privatized, 2u);
}

TEST(Elide, PrivatizationRoundsAnUnalignedOriginDown)
{
    // The lowest base, 100, is not granule-aligned, so the origin is
    // 96 and the first slot ends at 160. The pass counts an access as
    // reaching a granule past its address: m1 at 156 reaches byte
    // 163, past that end, and keeps the group. Counted from 100 it
    // would have fit.
    Program p = slotProgram(
        96, {{AddrExpr::perThread(100, 64)}, {AddrExpr::perThread(156, 64)}},
        3);
    EXPECT_EQ(elide(p).privatized, 0u);

    // At 152 it ends at the slot's last byte, 159.
    p = slotProgram(
        96, {{AddrExpr::perThread(100, 64)}, {AddrExpr::perThread(152, 64)}},
        3);
    EXPECT_EQ(elide(p).privatized, 2u);
}

TEST(Elide, PrivatizedGroupsShareNoGranuleAcrossThreads)
{
    // Brute force over small random groups: enumerate every shadow
    // granule (the detector's unit) each thread's stores can touch.
    // Whenever the pass privatizes a member, no granule it touches
    // may be touched by two threads; and every group whose members
    // share one slot counted from address 0 (the rule this pass
    // refines) must be privatized.
    constexpr uint64_t G = mem::kGranuleSize;
    Rng rng(2016);
    uint64_t privatized = 0, kept = 0, beyond_address_zero = 0;
    for (int round = 0; round < 4000; ++round) {
        const uint64_t workers = 1 + rng.below(3);
        const uint64_t ts = rng.below(8) == 0 ? 12 : G * (1 + rng.below(4));
        const uint64_t first = 64 + G * rng.below(16);
        std::vector<SlotMember> members(1 + rng.below(3));
        for (SlotMember &m : members) {
            m.addr.base = first + rng.below(2 * ts);
            m.addr.threadStride = rng.below(6) == 0 ? ts + G : ts;
            if (rng.below(2)) {
                m.addr.loopStride = 4 * rng.below(4);
                m.trips = 1 + rng.below(3);
            }
            if (rng.below(2)) {
                m.addr.randomCount = 1 + rng.below(3);
                m.addr.randomStride = 4 * rng.below(3);
            }
        }
        Program p = slotProgram(first, members, workers);
        const uint64_t n = elide(p).privatized;

        // Threads 0..workers, as the pass bounds them; granule →
        // mask of the threads that can touch it.
        std::map<uint64_t, uint64_t> touched;
        auto granules = [&](const SlotMember &m, uint64_t t, auto &&visit) {
            const uint64_t nr = std::max<uint64_t>(m.addr.randomCount, 1);
            for (uint64_t i = 0; i < m.trips; ++i)
                for (uint64_t r = 0; r < nr; ++r) {
                    const uint64_t a = m.addr.base + m.addr.threadStride * t +
                                       m.addr.loopStride * i +
                                       m.addr.randomStride * r;
                    visit(mem::granuleOf(a));
                }
        };
        for (const SlotMember &m : members)
            for (uint64_t t = 0; t <= workers; ++t)
                granules(m, t, [&](uint64_t g) { touched[g] |= 1ull << t; });

        bool same_slot = ts % G == 0;
        for (size_t i = 0; i < members.size(); ++i) {
            const SlotMember &m = members[i];
            const uint64_t span = m.addr.loopStride * (m.trips - 1) +
                                  m.addr.randomStride *
                                      (std::max<uint64_t>(
                                           m.addr.randomCount, 1) -
                                       1);
            same_slot = same_slot && m.addr.threadStride == ts &&
                        m.addr.base / ts == members[0].addr.base / ts &&
                        m.addr.base % ts + span + G <= ts;
            if (byTag(p, "m" + std::to_string(i)).instrumented)
                continue;
            // A member reaching past its own slot counted from address
            // 0 was out of the address-0 rule's reach, in any group.
            const uint64_t mts = m.addr.threadStride;
            beyond_address_zero += m.addr.base % mts + span + G > mts;
            for (uint64_t t = 0; t <= workers; ++t)
                granules(m, t, [&](uint64_t g) {
                    EXPECT_EQ(std::popcount(touched[g]), 1)
                        << "round " << round << ": m" << i
                        << " privatized but granule " << g
                        << " is shared";
                });
        }
        if (same_slot) {
            EXPECT_EQ(n, members.size()) << "round " << round;
        }
        privatized += n > 0;
        kept += n == 0;
        if (HasFailure())
            break;
    }
    // Both outcomes, and members only the origin rule privatizes,
    // occur.
    EXPECT_GT(privatized, 0u);
    EXPECT_GT(kept, 0u);
    EXPECT_GT(beyond_address_zero, 0u);
}

TEST(Elide, PreSpawnElisionKeepsEveryRace)
{
    // Brute force over seeded random programs: main stores before,
    // between and after its spawns (some spawns sit in loops, some
    // after a join), and two worker functions load and store the same
    // few words. Every main store is tagged with whether it lies
    // before the cut-off: its first spawn, or the outermost loop
    // around it. The pass must elide exactly those as pre-spawn, and
    // the elided build's race union over ten seeds must equal the
    // `--no-elide` union. Each access is followed by a boundary, so
    // every region is small and runs checked on the slow path: the
    // unions then follow from happens-before alone, not from overlap
    // luck.
    constexpr uint64_t kWords = 6;
    Rng rng(36);
    uint64_t pre_total = 0, post_total = 0, loop_spawns = 0, races = 0;
    for (int round = 0; round < 200; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        ProgramBuilder b;
        Addr pool = b.alloc("pool", 8 * kWords, 64);
        auto word = [&] {
            return AddrExpr::absolute(pool + 8 * rng.below(kWords));
        };
        std::vector<FuncId> workers;
        for (int w = 0; w < 2; ++w) {
            const std::string fn = "worker" + std::to_string(w);
            workers.push_back(b.beginFunction(fn));
            const uint64_t n = 1 + rng.below(3);
            for (uint64_t i = 0; i < n; ++i) {
                const std::string tag = fn + " " + std::to_string(i);
                if (rng.below(2))
                    b.store(word(), tag + " store");
                else
                    b.load(word(), tag + " load");
                b.syscall(1);
            }
            b.endFunction();
        }

        std::vector<std::string> pre, post;
        bool spawned = false;
        auto main_store = [&](bool before_cut) {
            const std::string tag = "main " +
                                    std::to_string(pre.size() + post.size());
            b.store(word(), tag);
            (before_cut ? pre : post).push_back(tag);
            b.syscall(1);
        };
        auto spawn = [&] { b.spawn(workers[rng.below(2)]); };
        b.beginFunction("main");
        const uint64_t events = 3 + rng.below(6);
        for (uint64_t e = 0; e < events; ++e) {
            switch (rng.below(5)) {
              case 0:
                main_store(!spawned);
                break;
              case 1:
                b.loop(2, [&] { main_store(!spawned); });
                break;
              case 2:
                spawn();
                spawned = true;
                break;
              case 3:
                // Every store in a loop that spawns runs after the
                // spawn on a later trip, so none is pre-spawn.
                b.loop(2, [&] {
                    if (rng.below(2))
                        main_store(false);
                    spawn();
                    if (rng.below(2))
                        main_store(false);
                });
                spawned = true;
                ++loop_spawns;
                break;
              default:
                b.joinAll();
                break;
            }
        }
        b.joinAll();
        b.endFunction();
        Program p = b.build();

        ElisionStats stats;
        Program on = preparedForTxRace(p, {}, &stats);
        EXPECT_EQ(stats.preSpawn, pre.size());
        for (const std::string &tag : pre)
            EXPECT_FALSE(byTag(on, tag).instrumented) << tag;
        for (const std::string &tag : post)
            EXPECT_TRUE(byTag(on, tag).instrumented) << tag;
        pre_total += pre.size();
        post_total += post.size();

        std::set<std::string> union_on, union_off;
        for (uint64_t seed = 1; seed <= 10; ++seed) {
            core::RunConfig cfg;
            cfg.mode = core::RunMode::TxRaceDynLoopcut;
            cfg.machine.seed = seed;
            core::RunConfig off = cfg;
            off.passes.elide.enabled = false;
            for (auto [c, u] : {std::pair{&cfg, &union_on},
                                std::pair{&off, &union_off}}) {
                core::RunResult r = core::runProgram(p, *c);
                ASSERT_TRUE(r.error.ok());
                for (const auto &[sig, race] :
                     core::fingerprintedRaces(p, r.races))
                    u->insert(sig.key);
            }
        }
        EXPECT_EQ(union_on, union_off);
        races += union_off.size();
        if (HasFailure())
            break;
    }
    // Stores on both sides of the cut-off, spawns in loops, and races
    // all occur.
    EXPECT_GT(pre_total, 0u);
    EXPECT_GT(post_total, 0u);
    EXPECT_GT(loop_spawns, 0u);
    EXPECT_GT(races, 0u);
}

TEST(Elide, DisabledPipelineIsIdentity)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.store(AddrExpr::absolute(x), "s");
    b.load(AddrExpr::absolute(x), "l");
    b.load(AddrExpr::absolute(x), "l");
    b.endFunction();
    Program p = b.build();
    ElideConfig cfg;
    cfg.enabled = false;
    ElisionStats stats = elide(p, cfg);
    EXPECT_EQ(stats.candidates, 0u);
    EXPECT_EQ(stats.elided(), 0u);
    for (const Instruction &ins : p.function(0).body) {
        if (isMemAccess(ins.op)) {
            EXPECT_TRUE(ins.instrumented);
        }
    }
}

TEST(Elide, PerFunctionStatsNameTheFunctions)
{
    // Each function's total sums what every pass elided in it: the
    // worker's slot family goes to privatization, main's set-up store
    // to the pre-spawn rule.
    ProgramBuilder b;
    Addr slots = b.alloc("slots", 64, 64);
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::perThread(slots, mem::kGranuleSize), "w rd");
    b.store(AddrExpr::perThread(slots, mem::kGranuleSize), "w");
    b.load(AddrExpr::perThread(slots, mem::kGranuleSize), "w rd");
    b.endFunction();
    b.beginFunction("main");
    b.store(AddrExpr::absolute(x), "init");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();
    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.privatized, 3u);
    EXPECT_EQ(stats.preSpawn, 1u);
    ASSERT_EQ(stats.perFunction.size(), 2u);
    EXPECT_EQ(stats.perFunction[0].first, "worker");
    EXPECT_EQ(stats.perFunction[0].second, 3u);
    EXPECT_EQ(stats.perFunction[1].first, "main");
    EXPECT_EQ(stats.perFunction[1].second, 1u);
}

// --- Bare regions (pass 3) ---

namespace {

/** transactionalize() then elide(), as preparedForTxRace does (these
 *  programs declare no private ranges). */
ElisionStats
prepare(Program &p, const ElideConfig &cfg = {})
{
    transactionalize(p);
    return elide(p, cfg);
}

/** The region marks (TxBegin arg1) of function @p f, in order. */
std::vector<uint64_t>
regionMarks(const Program &p, FuncId f)
{
    std::vector<uint64_t> marks;
    for (const Instruction &ins : p.function(f).body)
        if (ins.op == OpCode::TxBegin)
            marks.push_back(ins.arg1);
    return marks;
}

constexpr uint64_t kFast = 0;
constexpr uint64_t kSlow = kRegionForcedSlow;
constexpr uint64_t kBare = kRegionBare;

/** x264's shape: a worker whose loop holds a syscall and whose code
 *  after the loop stores. Region A runs from entry to the syscall,
 *  region B from the syscall around the back-edge, and region C,
 *  opened at the loop exit, holds the store. */
Program
loopExitProgram(uint64_t trips, uint64_t random_extra)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.loopJitter(trips, random_extra, [&] {
        b.compute(1);
        b.syscall(1);
        b.compute(2);
    });
    b.store(AddrExpr::absolute(x), "exchange");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace

TEST(Elide, RegionWithNothingToCheckIsBare)
{
    // The first region runs straight to its TxEnd past a load the
    // never-written pass elided; the second keeps a racy store.
    ProgramBuilder b;
    Addr table = b.alloc("table", 1024, 64);
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(table), "lookup");
    b.compute(5);
    b.syscall(1);
    b.store(AddrExpr::absolute(x), "racy");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = prepare(p);
    EXPECT_EQ(stats.readOnly, 1u);
    EXPECT_EQ(stats.bareRegions, 1u);
    EXPECT_EQ(regionMarks(p, worker),
              (std::vector<uint64_t>{kBare, kSlow}));
}

TEST(Elide, WrapAroundRegionReachingACheckOverTheBackEdgeIsNotBare)
{
    // The region opened after the syscall reaches the racy store only
    // by wrapping around the loop's back-edge.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        b.store(AddrExpr::absolute(x), "racy");
        b.syscall(1);
        b.compute(2);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ElisionStats stats = prepare(p);
    EXPECT_EQ(stats.bareRegions, 0u);
    EXPECT_EQ(regionMarks(p, worker),
              (std::vector<uint64_t>{kSlow, kSlow}));
}

TEST(Elide, RegionInsideABoundaryLoopEndsAtTheLoopExit)
{
    // The region opened after the syscall ends at the loop exit
    // instead of running on into the store, so it has nothing to
    // check on its back-edge path and runs bare; the store keeps a
    // region of its own.
    Program p = loopExitProgram(10, 0);
    ElisionStats stats = prepare(p);
    EXPECT_EQ(stats.bareRegions, 2u);
    EXPECT_EQ(regionMarks(p, 0),
              (std::vector<uint64_t>{kBare, kBare, kSlow}));
}

TEST(Elide, ZeroTripLoopSkipLandsOnTheSplitTxEnd)
{
    // With zero trips possible, the entry region skips the loop, but
    // the skip lands on the TxEnd that closes the loop: the entry
    // region is bare whatever the trip count.
    Program p = loopExitProgram(0, 2);
    ElisionStats stats = prepare(p);
    const auto &body = p.function(0).body;
    for (size_t pc = 0; pc < body.size(); ++pc) {
        if (body[pc].op == OpCode::LoopBegin) {
            EXPECT_EQ(body[static_cast<size_t>(body[pc].match) + 1].op,
                      OpCode::TxEnd);
        }
    }
    EXPECT_EQ(stats.bareRegions, 2u);
    EXPECT_EQ(regionMarks(p, 0),
              (std::vector<uint64_t>{kBare, kBare, kSlow}));
}

TEST(Elide, ForcedSlowRegionWithNothingToCheckBecomesBare)
{
    // Two accesses put the region below K, so transactionalize forces
    // it slow; the never-written and thread-disjointness passes then
    // leave it nothing to check, and the bare mark overrides.
    constexpr uint64_t G = mem::kGranuleSize;
    ProgramBuilder b;
    Addr table = b.alloc("table", 1024, 64);
    Addr slots = b.alloc("slots", 8 * G, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(table), "lookup");
    b.store(AddrExpr::perThread(slots, G), "own");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    transactionalize(p);
    ASSERT_EQ(regionMarks(p, worker), std::vector<uint64_t>{kSlow});
    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.readOnly, 1u);
    EXPECT_EQ(stats.privatized, 1u);
    EXPECT_EQ(stats.bareRegions, 1u);
    EXPECT_EQ(regionMarks(p, worker), std::vector<uint64_t>{kBare});
}

TEST(Elide, BareRegionCountIsExact)
{
    // worker: a bare region, a region above K with six stores, a bare
    // region after it, then the loop-exit shape (the entry and in-loop
    // regions bare, the store's region after the loop not).
    ProgramBuilder b;
    Addr table = b.alloc("table", 1024, 64);
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.load(AddrExpr::absolute(table), "lookup a");
    b.syscall(1);
    for (int i = 0; i < 6; ++i)
        b.store(AddrExpr::absolute(x + 8 * i), "x" + std::to_string(i));
    b.syscall(1);
    b.load(AddrExpr::absolute(table + 64), "lookup b");
    b.syscall(1);
    b.loop(3, [&] {
        b.compute(1);
        b.syscall(1);
    });
    b.store(AddrExpr::absolute(x), "exchange");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();
    Program off = p;

    ElisionStats stats = prepare(p);
    EXPECT_EQ(regionMarks(p, worker),
              (std::vector<uint64_t>{kBare, kFast, kBare, kBare, kBare,
                                     kSlow}));
    EXPECT_EQ(stats.bareRegions, 4u);

    // --no-elide: no pass runs, so no region is bare.
    ElideConfig disabled;
    disabled.enabled = false;
    ElisionStats none = prepare(off, disabled);
    EXPECT_EQ(none.bareRegions, 0u);
    for (uint64_t mark : regionMarks(off, worker))
        EXPECT_NE(mark, kBare);
}

// --- Lockset elision (pass 2's second rule) ---

namespace {

/** fluidanimate in miniature: workers update a stripe of cells under
 *  mutex 7, always. With @p main_peeks, `main` also reads the stripe,
 *  unguarded, between the spawn and the join. */
Program
lockedStripeProgram(bool main_peeks)
{
    ProgramBuilder b;
    Addr cells = b.alloc("cells", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(4, [&] {
        b.lock(7);
        b.store(AddrExpr::randomIn(cells, 8, 8), "cell wr");
        b.load(AddrExpr::randomIn(cells, 8, 8), "cell rd");
        b.unlock(7);
        b.compute(3);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    if (main_peeks)
        b.load(AddrExpr::absolute(cells + 16), "peek");
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace

TEST(Elide, LockedGroupIsElidedAndItsRegionRunsBare)
{
    // Every access that can touch the stripe holds mutex 7, so every
    // pair of them is ordered by 7's release→acquire edge: none can
    // race, and the critical section is left with nothing to check.
    // Regions: entry to the lock, the critical section, and unlock
    // around the back-edge to the next lock.
    Program p = lockedStripeProgram(false);
    transactionalize(p);
    ASSERT_EQ(regionMarks(p, 0),
              (std::vector<uint64_t>{kSlow, kSlow, kSlow}));
    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.locked, 2u);
    EXPECT_EQ(stats.privatized, 0u);
    EXPECT_EQ(stats.elided(), 2u);
    EXPECT_FALSE(byTag(p, "cell wr").instrumented);
    EXPECT_FALSE(byTag(p, "cell rd").instrumented);
    EXPECT_EQ(regionMarks(p, 0),
              (std::vector<uint64_t>{kBare, kBare, kBare}));
}

TEST(Elide, UnguardedMemberKeepsTheLockedGroup)
{
    // main's read runs while the workers do and holds no lock: it can
    // race with the locked store, so the whole group stays.
    Program p = lockedStripeProgram(true);
    ElisionStats stats = prepare(p);
    EXPECT_EQ(stats.locked, 0u);
    EXPECT_TRUE(byTag(p, "cell wr").instrumented);
    EXPECT_TRUE(byTag(p, "cell rd").instrumented);
    EXPECT_TRUE(byTag(p, "peek").instrumented);
    EXPECT_EQ(regionMarks(p, 0),
              (std::vector<uint64_t>{kBare, kSlow, kBare}));
}

TEST(Elide, AccessAfterTheReleaseIsUnguarded)
{
    // The second store follows the unlock: it races with the first
    // store of another worker, so the group stays.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.lock(7);
    b.store(AddrExpr::absolute(x), "inside");
    b.unlock(7);
    b.store(AddrExpr::absolute(x), "after");
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();
    ElisionStats stats = elide(p);
    EXPECT_EQ(stats.locked, 0u);
    EXPECT_TRUE(byTag(p, "inside").instrumented);
    EXPECT_TRUE(byTag(p, "after").instrumented);
}

TEST(Elide, DifferentMutexesKeepTheGroup)
{
    // Two functions write the same word under different mutexes: no
    // edge orders them. A third, nesting both, shares a mutex with
    // each but not one with both.
    auto build = [](bool nest_only) {
        ProgramBuilder b;
        Addr x = b.alloc("x", 64, 64);
        FuncId a = b.beginFunction("a");
        b.lock(1);
        if (nest_only)
            b.lock(2);
        b.store(AddrExpr::absolute(x), "a wr");
        if (nest_only)
            b.unlock(2);
        b.unlock(1);
        b.endFunction();
        FuncId c = b.beginFunction("c");
        b.lock(2);
        b.store(AddrExpr::absolute(x), "c wr");
        b.unlock(2);
        b.endFunction();
        b.beginFunction("main");
        b.spawn(a, 2);
        b.spawn(c, 2);
        b.joinAll();
        b.endFunction();
        return b.build();
    };
    Program apart = build(false);
    ElisionStats stats = elide(apart);
    EXPECT_EQ(stats.locked, 0u);
    EXPECT_TRUE(byTag(apart, "a wr").instrumented);
    EXPECT_TRUE(byTag(apart, "c wr").instrumented);

    // With "a" also holding 2 inside 1, mutex 2 guards both stores.
    Program nested = build(true);
    stats = elide(nested);
    EXPECT_EQ(stats.locked, 2u);
    EXPECT_FALSE(byTag(nested, "a wr").instrumented);
    EXPECT_FALSE(byTag(nested, "c wr").instrumented);
}

TEST(Elide, UnbalancedLoopDisablesLockSetsForItsFunction)
{
    // "a"'s store holds mutex 3 on every path, but a later one-trip
    // loop body acquires mutex 4 and leaves its release to the code
    // after the loop. The scan does not model per-trip sets: every
    // access of "a" gets an empty set, so the group stays. Without
    // that loop the same group is elided.
    auto build = [](bool unbalanced) {
        ProgramBuilder b;
        Addr x = b.alloc("x", 64, 64);
        FuncId a = b.beginFunction("a");
        b.lock(3);
        b.store(AddrExpr::absolute(x), "a wr");
        b.unlock(3);
        if (unbalanced) {
            b.loop(1, [&] { b.lock(4); });
            b.unlock(4);
        }
        b.endFunction();
        FuncId c = b.beginFunction("c");
        b.lock(3);
        b.store(AddrExpr::absolute(x), "c wr");
        b.unlock(3);
        b.endFunction();
        b.beginFunction("main");
        b.spawn(a, 2);
        b.spawn(c, 2);
        b.joinAll();
        b.endFunction();
        return b.build();
    };
    Program unbalanced = build(true);
    ElisionStats stats = elide(unbalanced);
    EXPECT_EQ(stats.locked, 0u);
    EXPECT_TRUE(byTag(unbalanced, "a wr").instrumented);
    EXPECT_TRUE(byTag(unbalanced, "c wr").instrumented);

    Program balanced = build(false);
    stats = elide(balanced);
    EXPECT_EQ(stats.locked, 2u);
    EXPECT_FALSE(byTag(balanced, "a wr").instrumented);
}

TEST(Elide, DriverCountsLockedElisions)
{
    // pass.elide.locked is the per-pass count and part of
    // pass.elide.total; --no-elide exports neither. Eliding the only
    // checks loses no race: the program has none.
    Program p = lockedStripeProgram(false);
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    core::RunResult on = core::runProgram(p, cfg);
    EXPECT_EQ(on.stats.get("pass.elide.locked"), 2u);
    EXPECT_EQ(on.stats.get("pass.elide.total"), 2u);
    EXPECT_EQ(on.races.count(), 0u);

    cfg.passes.elide.enabled = false;
    core::RunResult off = core::runProgram(p, cfg);
    EXPECT_EQ(off.stats.get("pass.elide.locked"), 0u);
    EXPECT_GT(off.stats.get("detector.writes"), 0u);
    EXPECT_EQ(off.races.count(), 0u);
}

// --- The structural half of the soundness contract ---

class ElideStructure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ElideStructure, OnlyInstrumentedBitsChange)
{
    // preparedForTxRace with and without elision must produce
    // position-for-position identical instruction streams — same ids,
    // opcodes, addresses, region structure — differing only in
    // `instrumented` and in bare-region marks. Given the same marks,
    // elided and non-elided runs are schedule-identical (same steps,
    // same RNG draws), which the behavioral differential test then
    // builds on.
    workloads::WorkloadParams params;
    params.calibrate = false;
    workloads::AppModel app = workloads::makeApp(GetParam(), params);

    PassConfig on;
    PassConfig off;
    off.elide.enabled = false;
    ElisionStats stats;
    ir::Program with = preparedForTxRace(app.program, on, &stats);
    ir::Program without = preparedForTxRace(app.program, off);

    ASSERT_EQ(with.numFunctions(), without.numFunctions());
    uint64_t demoted = 0;
    uint64_t bare = 0;
    for (FuncId f = 0; f < with.numFunctions(); ++f) {
        const auto &fa = with.function(f).body;
        const auto &fb = without.function(f).body;
        ASSERT_EQ(fa.size(), fb.size()) << "function " << f;
        for (size_t i = 0; i < fa.size(); ++i) {
            ASSERT_EQ(fa[i].id, fb[i].id);
            ASSERT_EQ(fa[i].op, fb[i].op);
            ASSERT_TRUE(fa[i].addr == fb[i].addr);
            ASSERT_EQ(fa[i].tag, fb[i].tag);
            ASSERT_EQ(fa[i].arg0, fb[i].arg0);
            // The only operand elision sets is the bare mark.
            if (fa[i].arg1 != fb[i].arg1) {
                ASSERT_EQ(fa[i].op, OpCode::TxBegin);
                ASSERT_EQ(fa[i].arg1, kRegionBare);
                ++bare;
            }
            // Elision may only clear the bit, never set it.
            if (fa[i].instrumented) {
                ASSERT_TRUE(fb[i].instrumented);
            } else if (fb[i].instrumented) {
                ++demoted;
            }
        }
    }
    EXPECT_EQ(demoted, stats.elided());
    EXPECT_EQ(bare, stats.bareRegions);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ElideStructure,
                         ::testing::ValuesIn(workloads::appNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });
