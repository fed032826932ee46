/**
 * @file
 * Tests of the machine <-> policy contract: hook ordering, step
 * consumption via beforeStep, rollback on self-abort from
 * onMemAccess, interrupt injection, and cost-bucket attribution.
 */

#include <gtest/gtest.h>

#include "core/policies.hh"
#include "ir/builder.hh"
#include "sim/machine.hh"

using namespace txrace;
using namespace txrace::ir;
using namespace txrace::sim;

namespace {

MachineConfig
quietConfig(uint64_t seed = 1)
{
    MachineConfig cfg;
    cfg.seed = seed;
    cfg.interruptPerStep = 0.0;
    return cfg;
}

} // namespace

TEST(MachinePolicy, HookOrderForSimpleRun)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId worker = b.beginFunction("worker");
    b.store(AddrExpr::absolute(x));
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    class Sequencer : public ExecutionPolicy
    {
      public:
        std::vector<std::string> log;
        void onRunStart(Machine &) override { log.push_back("start"); }
        void onRunEnd(Machine &) override { log.push_back("end"); }
        void
        onThreadExit(Machine &, Tid t) override
        {
            log.push_back("texit" + std::to_string(t));
        }
        void
        onThreadCreated(Machine &, Tid p_, Tid c) override
        {
            log.push_back("create" + std::to_string(p_) +
                          std::to_string(c));
        }
        void
        onThreadJoined(Machine &, Tid j, Tid t) override
        {
            log.push_back("join" + std::to_string(j) +
                          std::to_string(t));
        }
        bool
        onMemAccess(Machine &, Tid t, const Instruction &, Addr,
                    bool) override
        {
            log.push_back("mem" + std::to_string(t));
            return true;
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();

    std::vector<std::string> expect = {"start",  "create01", "mem1",
                                       "texit1", "join01",   "texit0",
                                       "end"};
    EXPECT_EQ(policy.log, expect);
}

TEST(MachinePolicy, BeforeStepConsumesSteps)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.compute(1);
    b.endFunction();
    Program p = b.build();

    class Delayer : public ExecutionPolicy
    {
      public:
        int delays = 3;
        bool
        beforeStep(Machine &, Tid) override
        {
            if (delays > 0) {
                --delays;
                return true;
            }
            return false;
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(policy.delays, 0);
    EXPECT_EQ(m.totalCost(), 1u);  // instruction still ran afterwards
}

TEST(MachinePolicy, SelfAbortRollsBackAndReexecutes)
{
    // The policy vetoes the first execution of the store; the machine
    // must restore the snapshot and re-run from there.
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main");
    b.compute(2);  // pre-region work
    // Hand-instrumented region:
    Instruction txb;
    txb.op = OpCode::TxBegin;
    b.raw(txb);
    b.compute(5);
    b.store(AddrExpr::absolute(x));
    Instruction txe;
    txe.op = OpCode::TxEnd;
    b.raw(txe);
    b.endFunction();
    Program p = b.build();

    class VetoOnce : public ExecutionPolicy
    {
      public:
        bool vetoed = false;
        int store_attempts = 0;
        void
        onTxBegin(Machine &m, Tid t, const Instruction &) override
        {
            m.context(t).takeSnapshot(m.context(t).pc + 1);
        }
        bool
        onMemAccess(Machine &m, Tid t, const Instruction &, Addr,
                    bool) override
        {
            ++store_attempts;
            if (!vetoed) {
                vetoed = true;
                m.rollback(t, Bucket::Capacity);
                return false;
            }
            return true;
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(policy.store_attempts, 2);
    // Pre-region work (2), the vetoed attempt (5 + 1), the successful
    // re-execution (5 + 1), and the rollback fee. No cost is
    // reclassified because no HTM transaction was ever open.
    EXPECT_EQ(m.totalCost(),
              2u + 6u + 6u + m.config().cost.rollbackCost);
}

TEST(MachinePolicy, WastedWorkReclassifiedOnRollback)
{
    // Same scenario but with a real HTM transaction: the aborted
    // attempt's base cost must move into the abort bucket.
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main2");
    Instruction txb;
    txb.op = OpCode::TxBegin;
    b.raw(txb);
    b.compute(5);
    b.store(AddrExpr::absolute(x));
    Instruction txe;
    txe.op = OpCode::TxEnd;
    b.raw(txe);
    b.endFunction();
    Program p = b.build();

    class CapacityOnce : public ExecutionPolicy
    {
      public:
        bool aborted = false;
        void
        onTxBegin(Machine &m, Tid t, const Instruction &) override
        {
            if (!m.htm().inTx(t)) {
                m.htm().begin(t);
                m.context(t).takeSnapshot(m.context(t).pc + 1);
                m.context(t).baseSinceTxBegin = 0;
            }
        }
        void
        onTxEnd(Machine &m, Tid t, const Instruction &) override
        {
            if (m.htm().inTx(t))
                m.htm().commit(t);
        }
        bool
        onMemAccess(Machine &m, Tid t, const Instruction &, Addr,
                    bool) override
        {
            if (!aborted) {
                aborted = true;
                m.htm().abortTx(t, htm::kAbortCapacity);
                m.rollback(t, Bucket::Capacity);
                // Re-enter the transaction for the retry.
                m.htm().begin(t);
                m.context(t).takeSnapshot(m.context(t).pc);
                return false;
            }
            return true;
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    uint64_t base = m.buckets()[static_cast<size_t>(Bucket::Base)];
    uint64_t cap = m.buckets()[static_cast<size_t>(Bucket::Capacity)];
    // One clean execution's worth of base cost (5 + 1), the wasted
    // first attempt (5 + 1) plus the rollback fee in Capacity.
    EXPECT_EQ(base, 6u);
    EXPECT_EQ(cap, 6u + m.config().cost.rollbackCost);
}

TEST(MachinePolicy, InterruptAbortsOnlyTransactionalThreads)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.loop(100, [&] { b.compute(1); });
    b.endFunction();
    Program p = b.build();

    class CountIntr : public ExecutionPolicy
    {
      public:
        int interrupts = 0;
        void
        onInterruptAbort(Machine &, Tid) override
        {
            ++interrupts;
        }
    } policy;
    MachineConfig cfg = quietConfig();
    cfg.interruptPerStep = 1.0;  // every step, were we transactional
    Machine m(p, cfg, policy);
    m.run();
    // Never in a transaction, so no interrupts are delivered.
    EXPECT_EQ(policy.interrupts, 0);
}

TEST(MachinePolicy, InterruptDeliveredInsideTransactions)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main");
    Instruction txb;
    txb.op = OpCode::TxBegin;
    b.raw(txb);
    b.loop(10, [&] { b.load(AddrExpr::absolute(x)); });
    Instruction txe;
    txe.op = OpCode::TxEnd;
    b.raw(txe);
    b.endFunction();
    Program p = b.build();

    class IntrPolicy : public ExecutionPolicy
    {
      public:
        int interrupts = 0;
        void
        onTxBegin(Machine &m, Tid t, const Instruction &) override
        {
            m.htm().begin(t);
            m.context(t).takeSnapshot(m.context(t).pc + 1);
        }
        void
        onTxEnd(Machine &m, Tid t, const Instruction &) override
        {
            if (m.htm().inTx(t))
                m.htm().commit(t);
        }
        void
        onInterruptAbort(Machine &m, Tid t) override
        {
            ++interrupts;
            EXPECT_TRUE(
                htm::isUnknownAbort(m.htm().lastAbortStatus(t)));
            m.rollback(t, Bucket::Unknown);
            // Give up on the transaction; run the region bare.
        }
    } policy;
    MachineConfig cfg = quietConfig();
    cfg.interruptPerStep = 0.5;
    Machine m(p, cfg, policy);
    m.run();
    EXPECT_GE(policy.interrupts, 1);
}

TEST(MachinePolicy, CostBucketsSumToTotal)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(30, [&] {
        b.store(AddrExpr::absolute(x));
        b.compute(2);
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::TsanPolicy policy(1.0, 5);
    Machine m(p, quietConfig(), policy);
    m.run();
    uint64_t sum = 0;
    for (uint64_t v : m.buckets())
        sum += v;
    EXPECT_EQ(sum, m.totalCost());
    EXPECT_GT(m.buckets()[static_cast<size_t>(Bucket::Check)], 0u);
}
