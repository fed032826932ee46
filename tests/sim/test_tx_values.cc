/**
 * @file
 * Atomicity and isolation of transactional stores: speculative
 * writes buffer per thread, publish on commit, and vanish on abort —
 * the all-or-nothing semantics real HTM guarantees and the TxRace
 * runtime relies on when re-executing rolled-back regions.
 *
 * Store semantics: each Store adds (arg0 + 1) to its granule, so a
 * default store is an increment and final memory values are exact,
 * schedule-independent counters.
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

MachineConfig
quietConfig(uint64_t seed = 1)
{
    MachineConfig cfg;
    cfg.seed = seed;
    cfg.interruptPerStep = 0.0;
    return cfg;
}

Instruction
rawOp(OpCode op)
{
    Instruction i;
    i.op = op;
    return i;
}

} // namespace

TEST(TxValues, NativeStoresIncrementMemory)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main");
    b.loop(5, [&] { b.store(AddrExpr::absolute(x)); });
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.memory().load(x), 5u);
}

TEST(TxValues, StoreDeltaUsesArg0)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main");
    Instruction st = rawOp(OpCode::Store);
    st.addr = AddrExpr::absolute(x);
    st.arg0 = 9;  // adds arg0 + 1 = 10
    b.raw(st);
    b.endFunction();
    Program p = b.build();
    core::NativePolicy policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.memory().load(x), 10u);
}

TEST(TxValues, CommittedTransactionPublishes)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main");
    b.raw(rawOp(OpCode::TxBegin));
    b.loop(3, [&] { b.store(AddrExpr::absolute(x)); });
    b.raw(rawOp(OpCode::TxEnd));
    b.endFunction();
    Program p = b.build();

    class TxPolicy : public ExecutionPolicy
    {
      public:
        uint64_t mid_tx_value = 99;
        void
        onTxBegin(Machine &m, Tid t, const Instruction &) override
        {
            m.htm().begin(t);
            m.context(t).takeSnapshot(m.context(t).pc + 1);
        }
        void
        onTxEnd(Machine &m, Tid t, const Instruction &) override
        {
            // Isolation: just before commit, memory still holds the
            // pre-transaction value.
            mid_tx_value = m.memory().load(64);
            m.commitTx(t);
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(policy.mid_tx_value, 0u);   // invisible until commit
    EXPECT_EQ(m.memory().load(x), 3u);    // atomic publish
}

TEST(TxValues, AbortDiscardsSpeculativeStores)
{
    // A capacity-overflowing region under TxRace-NoOpt: the first
    // attempt's stores must leave no trace; the slow-path
    // re-execution publishes exactly one set of increments.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr wide = b.alloc("wide", 16 * 4096 + 1024, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(4, [&] {
        for (int i = 0; i < 6; ++i)
            b.load(AddrExpr::absolute(data + 8 * i), "pad");
        b.loop(12, [&] {
            AddrExpr e = AddrExpr::perThread(wide, 64);
            e.loopStride = 4096;
            b.store(e, "stream");
        });
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceNoOpt;
    cfg.machine.seed = 1;
    cfg.machine.interruptPerStep = 0.0;

    // Run through the driver... but we need the memory, so drive the
    // pieces directly.
    ir::Program prepared = passes::preparedForTxRace(p, [] {
        passes::PassConfig pc;
        pc.insertLoopCuts = false;
        return pc;
    }());
    core::TxRacePolicy policy(cfg);
    Machine m(prepared, cfg.machine, policy);
    m.run();

    const auto &reg = m.tel().registry;
    EXPECT_GE(reg.valueByName("tx.abort.capacity") +
                  reg.valueByName("htm.aborts.capacity"),
              1u);
    // Every row was incremented exactly 4 times per worker despite
    // all the aborted attempts: no double-publish, no loss.
    for (uint64_t row = 0; row < 12; ++row) {
        for (Tid tid = 1; tid <= 2; ++tid) {
            Addr a = wide + tid * 64 + row * 4096;
            EXPECT_EQ(m.memory().load(a), 4u)
                << "row " << row << " tid " << tid;
        }
    }
}

TEST(TxValues, ConflictVictimRepublishesExactlyOnce)
{
    // Two workers increment a shared counter inside regions that
    // conflict; after all rollbacks and slow-path re-executions the
    // counter equals the total number of executed stores.
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr counter = b.alloc("counter", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        for (int i = 0; i < 6; ++i)
            b.load(AddrExpr::absolute(data + 8 * i), "pad");
        b.store(AddrExpr::absolute(counter), "increment");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    ir::Program prepared = passes::preparedForTxRace(p);
    // Both conflict repairs must publish each increment exactly once:
    // the pure TxFail protocol, and the default that adds the winner
    // replay.
    for (core::SlowPathKind kind :
         {core::SlowPathKind::TxFail, core::SlowPathKind::Replay}) {
        SCOPED_TRACE(core::slowPathKindName(kind));
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceDynLoopcut;
        cfg.slowpath = kind;
        cfg.machine = quietConfig(5);
        core::TxRacePolicy policy(cfg);
        Machine m(prepared, cfg.machine, policy);
        m.run();
        const auto &reg = m.tel().registry;
        EXPECT_GT(reg.valueByName("tx.abort.conflict") +
                      reg.valueByName("htm.aborts.conflict"),
                  0u);
        if (kind == core::SlowPathKind::Replay) {
            // Three requester-wins conflicts, and the TxFail broadcast
            // caught each winner in flight: every owed window was
            // dropped for the slow re-execution, none replayed.
            EXPECT_EQ(reg.valueByName("tx.abort.conflict") -
                          reg.valueByName("txrace.artificial_aborts"),
                      3u);
            EXPECT_EQ(reg.valueByName("htm.vlog.owed_dropped"), 3u);
            EXPECT_EQ(reg.valueByName("txrace.window.replays"), 0u);
        }
        EXPECT_EQ(m.memory().load(counter), 30u);
    }
}

TEST(TxValues, RaceTmRetryAbortsKeepCountersExact)
{
    // A retry-bit glitch kills a RaceTM transaction in the engine; the
    // policy must roll the thread back and re-run the region, or its
    // buffered increments are lost (or published by a later commit).
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr counters = b.alloc("counters", 4 * 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
        for (Addr c = 0; c < 4; ++c)
            b.store(AddrExpr::absolute(counters + 64 * c), "increment");
        for (int i = 0; i < 6; ++i)
            b.load(AddrExpr::absolute(data + 8 * i), "pad");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    passes::PassConfig pc;
    pc.elide.enabled = false;
    ir::Program prepared = passes::preparedForTxRace(p, pc);
    MachineConfig cfg = quietConfig(3);
    fault::FaultEpisode glitch;
    glitch.kind = fault::FaultKind::RetryGlitch;
    glitch.duration = ~0ull >> 1;
    glitch.addProb = 0.05;
    cfg.faults.add(glitch);
    core::RaceTmPolicy policy;
    Machine m(prepared, cfg, policy);
    ASSERT_TRUE(m.run().ok());

    const auto &reg = m.tel().registry;
    EXPECT_GT(reg.valueByName("machine.retry_aborts"), 0u);
    EXPECT_EQ(reg.valueByName("tx.abort.retry"),
              reg.valueByName("machine.retry_aborts"));
    EXPECT_EQ(reg.valueByName("tx.begins"),
              reg.valueByName("tx.committed") +
                  reg.valueByName("tx.abort.conflict") +
                  reg.valueByName("tx.abort.capacity") +
                  reg.valueByName("tx.abort.unknown") +
                  reg.valueByName("tx.abort.retry"));
    for (Addr c = 0; c < 4; ++c)
        EXPECT_EQ(m.memory().load(counters + 64 * c), 20u)
            << "counter " << c;
}

TEST(TxValues, TransactionReadsItsOwnBufferedValue)
{
    // (Documented via the machine's store semantics: a second store
    // in the same transaction accumulates on the buffered value.)
    ProgramBuilder b;
    Addr x = b.alloc("x", 8);
    b.beginFunction("main");
    b.raw(rawOp(OpCode::TxBegin));
    b.store(AddrExpr::absolute(x));
    b.store(AddrExpr::absolute(x));
    b.raw(rawOp(OpCode::TxEnd));
    b.endFunction();
    Program p = b.build();

    class TxPolicy : public ExecutionPolicy
    {
      public:
        void
        onTxBegin(Machine &m, Tid t, const Instruction &) override
        {
            m.htm().begin(t);
            m.context(t).takeSnapshot(m.context(t).pc + 1);
        }
        void
        onTxEnd(Machine &m, Tid t, const Instruction &) override
        {
            m.commitTx(t);
        }
    } policy;
    Machine m(p, quietConfig(), policy);
    m.run();
    EXPECT_EQ(m.memory().load(x), 2u);
}
