/**
 * @file
 * Unit tests for the TSan baseline policy, including sampling.
 */

#include <gtest/gtest.h>

#include "core/driver.hh"
#include "core/policies.hh"
#include "ir/builder.hh"
#include "sim/machine.hh"

using namespace txrace;
using namespace txrace::ir;
using namespace txrace::sim;

namespace {

/** Two workers hammering an unlocked counter. */
Program
racyProgram()
{
    ProgramBuilder b;
    Addr counter = b.alloc("counter", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(30, [&] {
        b.store(AddrExpr::absolute(counter));
        b.compute(2);
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

TEST(TsanPolicy, FindsTheRace)
{
    Program p = racyProgram();
    core::TsanPolicy policy(1.0, 9);
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.det().races().count(), 1u);
}

TEST(TsanPolicy, ZeroSamplingFindsNothingButStillCosts)
{
    Program p = racyProgram();
    core::TsanPolicy policy(0.0, 9);
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.det().races().count(), 0u);
    // Unsampled accesses still pay the sampling branch.
    EXPECT_GT(m.buckets()[static_cast<size_t>(Bucket::Check)], 0u);
}

TEST(TsanPolicy, SamplingCostScalesWithRate)
{
    Program p = racyProgram();
    uint64_t cost_low, cost_full;
    {
        core::TsanPolicy policy(0.1, 9);
        Machine m(p, quietConfig(), policy);
        m.run();
        cost_low = m.totalCost();
    }
    {
        core::TsanPolicy policy(1.0, 9);
        Machine m(p, quietConfig(), policy);
        m.run();
        cost_full = m.totalCost();
    }
    EXPECT_LT(cost_low, cost_full);
}

TEST(TsanPolicy, SamplingChecksApproximateRate)
{
    Program p = racyProgram();
    core::TsanPolicy policy(0.5, 9);
    Machine m(p, quietConfig(), policy);
    m.run();
    uint64_t checked = m.det().counters().reads +
                       m.det().counters().writes;
    // 60 instrumented accesses at 50%.
    EXPECT_GT(checked, 15u);
    EXPECT_LT(checked, 45u);
}

TEST(TsanPolicy, UninstrumentedAccessesAreFree)
{
    ProgramBuilder b;
    Addr priv = b.allocPrivate("p", 256);
    FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] { b.storePrivate(AddrExpr::perThread(priv, 64)); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::TsanPolicy policy(1.0, 9);
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.det().counters().reads, 0u);
    EXPECT_EQ(m.det().counters().writes, 0u);
}

TEST(TsanPolicy, SyncTrackingCostsGoToCheckBucket)
{
    ProgramBuilder b;
    FuncId worker = b.beginFunction("worker");
    b.loop(5, [&] {
        b.lock(0);
        b.unlock(0);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::TsanPolicy policy(1.0, 9);
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_GT(m.buckets()[static_cast<size_t>(Bucket::Check)], 0u);
}

TEST(TsanPolicyDeathTest, RejectsBadRate)
{
    EXPECT_EXIT(core::TsanPolicy(1.5), testing::ExitedWithCode(1),
                "out of");
    EXPECT_EXIT(core::TsanPolicy(-0.1), testing::ExitedWithCode(1),
                "out of");
}
