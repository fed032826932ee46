/**
 * @file
 * Contract tests for the decoded step loop (one quantum loop switching
 * on the op kind, quantum batching, O(1) runnable set): seeded
 * determinism down to the schedule hash and the full stats dump,
 * exact final memory images (schedule-independent by construction),
 * full-registry ground-truth recall under the quantum scheduler, and
 * structured BadAccess errors instead of process death on malformed
 * workloads.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "core/policies.hh"
#include "ir/builder.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::sim;
using namespace txrace::workloads;

namespace {

/** Iterations of mixedProgram's worker loop. */
constexpr uint64_t kMixedIters = 20;

/** Two workers mixing shared, per-thread, and loop-indexed traffic —
 *  exercises every address shape the decoder specializes. The shared
 *  word's and slot array's addresses are returned through the
 *  optional out-parameters. */
ir::Program
mixedProgram(ir::Addr *shared_out = nullptr,
             ir::Addr *slots_out = nullptr)
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64, 64);
    ir::Addr slots = b.alloc("slots", 4 * 64, 64);
    if (shared_out)
        *shared_out = shared;
    if (slots_out)
        *slots_out = slots;
    ir::Addr table = b.alloc("table", 64 * 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(kMixedIters, [&] {
        b.compute(3);
        b.store(ir::AddrExpr::perThread(slots, 64));
        b.loop(4, [&] {
            b.load(ir::AddrExpr::perIter(table, 8));
            b.compute(1);
        });
        b.store(ir::AddrExpr::absolute(shared));
        b.load(ir::AddrExpr::randomIn(table, 8, 8));
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    return b.build();
}

MachineConfig
quietConfig(uint64_t seed = 1)
{
    MachineConfig cfg;
    cfg.seed = seed;
    cfg.interruptPerStep = 0.0;
    return cfg;
}

} // namespace

TEST(SimCore, ScheduleHashAndStatsDeterministicPerSeed)
{
    ir::Program p = mixedProgram();
    auto once = [&](uint64_t seed) {
        core::TsanPolicy policy(1.0, 7);
        Machine m(p, quietConfig(seed), policy);
        EXPECT_TRUE(m.run().ok());
        return std::pair<uint64_t, uint64_t>(m.scheduleHash(),
                                             m.totalCost());
    };
    auto [hash_a, cost_a] = once(5);
    auto [hash_b, cost_b] = once(5);
    EXPECT_EQ(hash_a, hash_b);
    EXPECT_EQ(cost_a, cost_b);
    // A different seed produces a different (equally valid) schedule.
    auto [hash_c, cost_c] = once(6);
    EXPECT_NE(hash_a, hash_c);
    (void)cost_c;
}

TEST(SimCore, GoldenStatsDumpIsByteIdentical)
{
    // The full string-keyed stats dump — every exported counter,
    // gauge, and histogram summary — must be identical across
    // same-seed runs under the quantum loop, not just the headline
    // numbers. This is the contract campaign byte-determinism and the
    // profile `cmp` checks in CI build on.
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("vips", params);
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = 3;
    core::RunResult a = core::runProgram(app.program, cfg);
    core::RunResult b = core::runProgram(app.program, cfg);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    EXPECT_EQ(a.races.keys(), b.races.keys());
    EXPECT_EQ(a.totalCost, b.totalCost);
}

TEST(SimCore, DecodedFinalMemoryMatchesClosedForm)
{
    // Stores accumulate commutatively (granule += arg0 + 1), so the
    // final image of mixedProgram is known exactly whatever the
    // schedule: each of the two workers (tids 1 and 2) stores once per
    // iteration to its own slot and once to the shared word, and the
    // loads leave memory alone. Every other granule stays zero. This
    // pins the decoded store handlers for every address shape.
    ir::Addr shared = 0, slots = 0;
    ir::Program p = mixedProgram(&shared, &slots);
    std::vector<uint64_t> want(p.addrSpaceSize() / 8, 0);
    want[shared / 8] = 2 * kMixedIters;
    for (Tid t : {Tid{1}, Tid{2}})
        want[(slots + 64 * t) / 8] = kMixedIters;

    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        core::NativePolicy policy;
        Machine m(p, quietConfig(seed), policy);
        EXPECT_TRUE(m.run().ok());
        std::vector<uint64_t> image;
        for (ir::Addr a = 0; a < p.addrSpaceSize(); a += 8)
            image.push_back(m.memory().load(a));
        EXPECT_EQ(image, want) << "seed " << seed;
    }
}

TEST(SimCore, GroundTruthRecallAcrossRegistry)
{
    // The always-on happens-before baseline must still find exactly
    // the planted races for every app in the registry under the
    // decoded quantum loop, at more than one seed. This is the recall
    // floor the campaign precision/recall gates build on.
    for (const std::string &name : appNames()) {
        WorkloadParams params;
        params.calibrate = false;
        AppModel app = makeApp(name, params);
        for (uint64_t seed : {1ull, 2ull}) {
            core::RunConfig cfg;
            cfg.mode = core::RunMode::TSan;
            cfg.machine = app.machine;
            cfg.machine.seed = seed;
            core::RunResult tsan = core::runProgram(app.program, cfg);
            EXPECT_EQ(tsan.races.count(), app.plantedRaces)
                << name << " seed " << seed;
        }
    }
}

TEST(SimCore, BadAccessSurfacesThroughDriver)
{
    // A worker whose thread-strided address walks off the end of the
    // address space: the run must end with a structured BadAccess
    // error through the full driver pipeline — campaign workers
    // survive malformed workloads.
    ir::ProgramBuilder b;
    ir::Addr small = b.alloc("small", 128, 64);
    ir::FuncId worker = b.beginFunction("worker");
    ir::AddrExpr e;
    e.base = small;
    e.threadStride = 4096;  // tid >= 1 lands beyond the allocation
    b.load(e);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    ir::Program p = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine.interruptPerStep = 0.0;
    core::RunResult r = core::runProgram(p, cfg);
    EXPECT_EQ(r.error.kind, RunError::Kind::BadAccess);
    EXPECT_FALSE(r.error.ok());
    EXPECT_FALSE(r.error.threads.empty());
}

TEST(SimCore, LoopIndexedBadAccessIsStructured)
{
    // A loop-indexed address that leaves the address space on its
    // second trip: the LoopIndexed handler's bounds check (distinct
    // from the thread-strided one above) must raise the structured
    // BadAccess stop, not read past the end.
    ir::ProgramBuilder b;
    ir::Addr small = b.alloc("small", 64, 64);
    b.beginFunction("main");
    ir::AddrExpr e;
    e.base = small;
    e.loopStride = 4096;
    b.loopBegin(3);
    b.load(e);
    b.loopEnd();
    b.endFunction();
    ir::Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    const RunError &err = m.run();
    EXPECT_EQ(err.kind, RunError::Kind::BadAccess);
    EXPECT_FALSE(err.threads.empty());
}

TEST(SimCore, DecodeSetsOpKinds)
{
    // Each simple op decodes to its inline kind and no handler; sync
    // ops decode to an out-of-line handler.
    ir::ProgramBuilder b;
    ir::Addr slots = b.alloc("slots", 4 * 64, 64);
    b.beginFunction("main");
    b.raw(ir::Instruction{});
    b.compute(2);
    b.syscall(1);
    b.loop(2, [&] {
        b.load(ir::AddrExpr::absolute(slots));
        b.store(ir::AddrExpr::perThread(slots, 64));
        b.load(ir::AddrExpr::perIter(slots, 8));
        b.store(ir::AddrExpr::randomIn(slots, 4, 8));
    });
    b.lock(0);
    b.unlock(0);
    b.endFunction();
    ir::Program p = b.build();
    const DecodedProgram d = decodeProgram(p, CostModel{});
    const DecodedFunction &ops = d.funcs[p.entry()];
    const OpKind want[] = {
        OpKind::Nop,
        OpKind::Compute,
        OpKind::Syscall,
        OpKind::LoopBegin,
        OpKind::LoadConstant,
        OpKind::StoreThreadStrided,
        OpKind::LoadLoopIndexed,
        OpKind::StoreRandomized,
        OpKind::LoopEnd,
        OpKind::Handler,  // lock
        OpKind::Handler,  // unlock
    };
    ASSERT_EQ(ops.size(), std::size(want));
    for (size_t pc = 0; pc < ops.size(); ++pc) {
        EXPECT_EQ(ops[pc].kind, want[pc]) << "pc " << pc;
        EXPECT_EQ(ops[pc].fn != nullptr, want[pc] == OpKind::Handler)
            << "pc " << pc;
    }
    // The zero-trip jump lands just past the LoopEnd.
    EXPECT_EQ(ops[3].jump, 9u);
}
