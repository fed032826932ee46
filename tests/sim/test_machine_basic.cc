/**
 * @file
 * Unit tests for the machine core: cost accounting, loop execution,
 * address evaluation, thread lifecycle, determinism, and failure
 * modes (deadlock, out-of-bounds access, livelock guard).
 */

#include <gtest/gtest.h>

#include "core/policies.hh"
#include "ir/builder.hh"
#include "sim/machine.hh"

using namespace txrace;
using namespace txrace::ir;
using namespace txrace::sim;

namespace {

/** Policy recording every memory access address per thread. */
class RecordingPolicy : public ExecutionPolicy
{
  public:
    bool
    onMemAccess(Machine &, Tid t, const Instruction &, Addr addr,
                bool is_write) override
    {
        accesses.push_back({t, addr, is_write});
        return true;
    }

    struct Access
    {
        Tid tid;
        Addr addr;
        bool write;
    };
    std::vector<Access> accesses;
};

MachineConfig
quietConfig(uint64_t seed = 1)
{
    MachineConfig cfg;
    cfg.seed = seed;
    cfg.interruptPerStep = 0.0;  // no noise unless a test wants it
    return cfg;
}

} // namespace

TEST(Machine, ComputeCostAccrues)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.compute(10);
    b.compute(5);
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.totalCost(), 15u);
    EXPECT_EQ(m.buckets()[static_cast<size_t>(Bucket::Base)], 15u);
}

TEST(Machine, LoopRunsExactTripCount)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.loop(7, [&] { b.compute(1); });
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.totalCost(), 7u);
}

TEST(Machine, NestedLoopsMultiply)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.loop(3, [&] { b.loop(4, [&] { b.compute(1); }); });
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.totalCost(), 12u);
}

TEST(Machine, JitteredLoopWithinBounds)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.loopJitter(5, 3, [&] { b.compute(1); });
    b.endFunction();
    Program p = b.build();
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        core::NativePolicy policy;
        Machine m(p, quietConfig(seed), policy);
        m.run();
        EXPECT_GE(m.totalCost(), 5u);
        EXPECT_LE(m.totalCost(), 8u);
    }
}

TEST(Machine, PerThreadAddressing)
{
    ProgramBuilder b;
    Addr base = b.alloc("arr", 1024);
    FuncId worker = b.beginFunction("worker");
    b.store(AddrExpr::perThread(base, 64));
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    RecordingPolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    ASSERT_EQ(policy.accesses.size(), 3u);
    std::set<Addr> addrs;
    for (const auto &a : policy.accesses) {
        EXPECT_EQ(a.addr, base + a.tid * 64);
        addrs.insert(a.addr);
    }
    EXPECT_EQ(addrs.size(), 3u);  // tids 1..3, all distinct
}

TEST(Machine, LoopIndexedAddressing)
{
    ProgramBuilder b;
    Addr base = b.alloc("arr", 1024);
    b.beginFunction("main");
    b.loop(4, [&] { b.load(AddrExpr::perIter(base, 8)); });
    b.endFunction();
    Program p = b.build();
    RecordingPolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    ASSERT_EQ(policy.accesses.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(policy.accesses[i].addr, base + i * 8);
}

TEST(Machine, OuterLoopDepthAddressing)
{
    ProgramBuilder b;
    Addr base = b.alloc("arr", 4096);
    b.beginFunction("main");
    b.loopBegin(2);
    b.loopBegin(2);
    AddrExpr e;
    e.base = base;
    e.loopStride = 512;
    e.loopDepth = 1;  // indexes the outer loop
    b.load(e);
    b.loopEnd();
    b.loopEnd();
    b.endFunction();
    Program p = b.build();
    RecordingPolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    ASSERT_EQ(policy.accesses.size(), 4u);
    EXPECT_EQ(policy.accesses[0].addr, base);
    EXPECT_EQ(policy.accesses[1].addr, base);
    EXPECT_EQ(policy.accesses[2].addr, base + 512);
    EXPECT_EQ(policy.accesses[3].addr, base + 512);
}

TEST(Machine, RandomAddressingStaysInRange)
{
    ProgramBuilder b;
    Addr base = b.alloc("arr", 16 * 8);
    b.beginFunction("main");
    b.loop(100, [&] { b.load(AddrExpr::randomIn(base, 16, 8)); });
    b.endFunction();
    Program p = b.build();
    RecordingPolicy policy;
    Machine m(p, quietConfig(7), policy);
    m.run();
    std::set<Addr> seen;
    for (const auto &a : policy.accesses) {
        EXPECT_GE(a.addr, base);
        EXPECT_LT(a.addr, base + 16 * 8);
        seen.insert(a.addr);
    }
    EXPECT_GT(seen.size(), 8u);  // actually random
}

TEST(Machine, ThreadCreateAndJoinAll)
{
    ProgramBuilder b;
    FuncId worker = b.beginFunction("worker");
    b.compute(100);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.compute(1);
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.numThreads(), 5u);
    EXPECT_EQ(m.tel().registry.valueByName("machine.threads_created"), 4u);
    // 4 workers x 100 + main's compute + thread ops.
    EXPECT_GE(m.totalCost(), 401u);
}

TEST(Machine, JoinSpecificThread)
{
    ProgramBuilder b;
    FuncId worker = b.beginFunction("worker");
    b.compute(10);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.join(1);  // join the second spawned thread only
    b.join(0);
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.liveThreads(), 0u);
}

TEST(Machine, DeterministicAcrossRuns)
{
    ProgramBuilder b;
    Addr arr = b.alloc("arr", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(50, [&] {
        b.load(AddrExpr::randomIn(arr, 64, 8));
        b.compute(3);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    auto run_once = [&](uint64_t seed) {
        RecordingPolicy policy;
        Machine m(p, quietConfig(seed), policy);
        m.run();
        std::vector<std::pair<Tid, Addr>> tr;
        for (const auto &a : policy.accesses)
            tr.emplace_back(a.tid, a.addr);
        return std::make_pair(m.totalCost(), tr);
    };
    auto [cost1, trace1] = run_once(5);
    auto [cost2, trace2] = run_once(5);
    auto [cost3, trace3] = run_once(6);
    EXPECT_EQ(cost1, cost2);
    EXPECT_EQ(trace1, trace2);
    EXPECT_NE(trace1, trace3);  // different seed, different schedule
}

TEST(Machine, RunnableThreadsExcludesBlockedMain)
{
    ProgramBuilder b;
    FuncId worker = b.beginFunction("worker");
    b.compute(1000);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    class Probe : public ExecutionPolicy
    {
      public:
        uint32_t maxRunnable = 0;
        bool
        onMemAccess(Machine &, Tid, const Instruction &, Addr,
                    bool) override
        {
            return true;
        }
        void
        onThreadCreated(Machine &m, Tid, Tid) override
        {
            maxRunnable = std::max(maxRunnable, m.runnableThreads());
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_LE(policy.maxRunnable, 3u);
}

TEST(Machine, DeadlockReturnsStructuredError)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.wait(0);  // nobody will ever signal
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    const RunError &err = m.run();
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.kind, RunError::Kind::Deadlock);
    ASSERT_EQ(err.threads.size(), 1u);
    EXPECT_EQ(err.threads[0].tid, 0u);
    // Blocked-on state names the function and the offending wait.
    EXPECT_NE(err.threads[0].where.find("main"), std::string::npos);
    EXPECT_EQ(err.threads[0].state, ThreadState::Blocked);
    EXPECT_EQ(m.tel().registry.valueByName("machine.deadlocks"), 1u);
    // The machine survives; error() returns the same report.
    EXPECT_EQ(m.error().kind, RunError::Kind::Deadlock);
}

TEST(Machine, JoinWaitsForALaterSpawnOfItsIndex)
{
    // Spawn indices are global: index 1 is the thread the spawner
    // creates, which may not exist yet when main reaches its join.
    ProgramBuilder b;
    FuncId leaf = b.beginFunction("leaf");
    b.compute(1);
    b.endFunction();
    FuncId spawner = b.beginFunction("spawner");
    b.loop(50, [&] { b.compute(1); });  // main reaches its join first
    b.spawn(leaf);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(spawner);
    b.join(1);
    b.join(0);
    b.endFunction();
    Program p = b.build();
    class JoinLog : public core::NativePolicy
    {
      public:
        std::vector<std::pair<Tid, Tid>> joins;
        void
        onThreadJoined(Machine &, Tid joiner, Tid target) override
        {
            joins.emplace_back(joiner, target);
        }
    };
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        JoinLog policy;
        Machine m(p, quietConfig(seed), policy);
        ASSERT_TRUE(m.run().ok()) << "seed " << seed;
        const std::vector<std::pair<Tid, Tid>> want = {{0, 2}, {0, 1}};
        EXPECT_EQ(policy.joins, want) << "seed " << seed;
    }
}

TEST(Machine, JoinOfAnIndexNeverSpawnedDeadlocks)
{
    ProgramBuilder b;
    FuncId worker = b.beginFunction("worker");
    b.compute(1);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker);
    b.join(5);  // only index 0 is ever spawned
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    const RunError &err = m.run();
    EXPECT_EQ(err.kind, RunError::Kind::Deadlock);
    ASSERT_EQ(err.threads.size(), 1u);
    EXPECT_EQ(err.threads[0].tid, 0u);
    EXPECT_EQ(err.threads[0].state, ThreadState::Blocked);
    EXPECT_NE(err.threads[0].where.find("join idx=5"), std::string::npos)
        << err.threads[0].where;
}

TEST(Machine, OutOfBoundsAccessIsStructuredError)
{
    // The static base check already triggers at finalize for absolute
    // addresses, so construct the violation dynamically. A malformed
    // workload must end the run with a structured BadAccess error, not
    // kill the process — campaign and service workers keep going.
    ProgramBuilder b2;
    Addr base = b2.alloc("small", 64);
    b2.beginFunction("main");
    AddrExpr e;
    e.base = base;
    e.loopStride = 4096;
    b2.loopBegin(3);
    b2.load(e);
    b2.loopEnd();
    b2.endFunction();
    Program p2 = b2.build();
    core::NativePolicy policy;
    Machine m(p2, quietConfig(), policy);
    const RunError &err = m.run();
    EXPECT_EQ(err.kind, RunError::Kind::BadAccess);
    EXPECT_FALSE(err.ok());
    EXPECT_GT(err.stepsExecuted, 0u);
    ASSERT_EQ(err.threads.size(), 1u);
    EXPECT_EQ(err.threads[0].tid, 0u);
    EXPECT_STREQ(runErrorKindName(err.kind), "bad-access");
}

TEST(Machine, StepLimitTruncatesInsteadOfAborting)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.loop(1000000, [&] { b.compute(1); });
    b.endFunction();
    Program p = b.build();
    MachineConfig cfg = quietConfig();
    cfg.maxSteps = 100;
    core::NativePolicy policy;
    Machine m(p, cfg, policy);
    const RunError &err = m.run();
    EXPECT_TRUE(err.truncated());
    EXPECT_EQ(err.kind, RunError::Kind::Truncated);
    EXPECT_EQ(err.stepsExecuted, 100u);
    // The runaway thread is reported still runnable, mid-loop.
    ASSERT_EQ(err.threads.size(), 1u);
    EXPECT_EQ(err.threads[0].state, ThreadState::Runnable);
    EXPECT_EQ(m.tel().registry.valueByName("machine.truncated"), 1u);
    EXPECT_EQ(m.tel().registry.valueByName("machine.steps"), 100u);
    // Partial cost accounting is still coherent.
    uint64_t sum = 0;
    for (uint64_t c : m.buckets())
        sum += c;
    EXPECT_EQ(sum, m.totalCost());
    EXPECT_GT(m.totalCost(), 0u);
}

TEST(MachineDeathTest, UnfinalizedProgramIsFatal)
{
    Program p;
    Function fn;
    fn.name = "main";
    p.addFunction(std::move(fn));
    core::NativePolicy policy;
    EXPECT_EXIT(Machine(p, quietConfig(), policy),
                testing::ExitedWithCode(1), "not finalized");
}

TEST(MachineDeathTest, SecondRunPanics)
{
    // A Machine is single-use: a second run() would re-root thread 0
    // and publish every HTM and detector counter a second time.
    ProgramBuilder b;
    b.beginFunction("main");
    b.compute(1);
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    ASSERT_TRUE(m.run().ok());
    EXPECT_DEATH(m.run(), "runs once");
}

namespace {

/** Moves its thread to the slow path on an access without ending
 *  the quantum: a policy breaking the one-phase-per-quantum rule. */
class PhaseFlipPolicy : public ExecutionPolicy
{
  public:
    bool
    onMemAccess(Machine &m, Tid t, const ir::Instruction &, ir::Addr,
                bool) override
    {
        m.context(t).path = PathMode::Slow;
        return true;
    }
};

} // namespace

TEST(MachineDeathTest, PhaseChangeInsideQuantumPanics)
{
    // The step loop reads the phase once per quantum, so a quantum
    // that runs out without a forced break must end in its phase.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(64, [&] { b.load(AddrExpr::absolute(x)); });
    b.endFunction();
    Program p = b.build();
    PhaseFlipPolicy policy;
    Machine m(p, quietConfig(), policy);
    EXPECT_DEATH(m.run(), "changed phase inside a quantum");
}
