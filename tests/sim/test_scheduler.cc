/**
 * @file
 * Statistical properties of the seeded scheduler: fairness among
 * runnable threads, sensitivity to the seed, and interrupt-rate
 * scaling under oversubscription.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/driver.hh"
#include "core/policies.hh"
#include "ir/builder.hh"
#include "passes/passes.hh"
#include "sim/machine.hh"

using namespace txrace;
using namespace txrace::ir;
using namespace txrace::sim;

namespace {

/** Counts scheduled memory accesses per thread. */
class StepCounter : public ExecutionPolicy
{
  public:
    std::map<Tid, uint64_t> steps;
    bool
    onMemAccess(Machine &, Tid t, const Instruction &, Addr,
                bool) override
    {
        ++steps[t];
        return true;
    }
};

Program
spinningWorkers(uint32_t workers, uint64_t iters)
{
    ProgramBuilder b;
    Addr a = b.alloc("a", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(iters, [&] { b.load(AddrExpr::randomIn(a, 64, 8)); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, workers);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace

TEST(Scheduler, RoughlyFairAmongEqualWorkers)
{
    Program p = spinningWorkers(4, 500);
    StepCounter policy;
    MachineConfig cfg;
    cfg.seed = 17;
    cfg.interruptPerStep = 0.0;
    Machine m(p, cfg, policy);
    m.run();
    // Everyone finishes the same amount of work...
    for (Tid t = 1; t <= 4; ++t)
        EXPECT_EQ(policy.steps[t], 500u);
}

TEST(Scheduler, InterleavingIsFineGrained)
{
    // Machine::kSchedQuantum sets the granularity: while any
    // transaction is in flight the scheduler re-picks after every
    // access, so conflict detection sees per-access interleavings;
    // otherwise one pick runs up to a quantum of ops back to back.
    // beforeStep runs once per pick, so the probe can tell which
    // accesses each quantum made.
    ProgramBuilder b;
    Addr a = b.alloc("a", 4096);
    FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        for (int k = 0; k < 8; ++k)
            b.load(AddrExpr::randomIn(a, 64, 8));
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    // Single-threaded, so untransacted: quanta batch these stores.
    // Written after a spawn, so the workers' loads stay instrumented
    // and their regions stay transactional (the passes elide a store
    // made before the first spawn).
    b.loop(64, [&] { b.store(AddrExpr::perIter(a, 8)); });
    b.endFunction();
    // No loop cuts: a cut marker is a forced preemption point too.
    passes::PassConfig pc;
    pc.insertLoopCuts = false;
    Program p = passes::preparedForTxRace(b.build(), pc);

    struct Quantum
    {
        Tid tid = 0;
        uint32_t accesses = 0;
        /** Accesses made while some transaction was in flight. */
        uint32_t txAccesses = 0;
        bool lastInTx = false;
    };
    class QuantumProbe : public core::TxRacePolicy
    {
      public:
        using TxRacePolicy::TxRacePolicy;
        std::vector<Quantum> quanta;
        std::vector<Tid> order;
        bool
        beforeStep(Machine &m, Tid t) override
        {
            quanta.push_back({t});
            return TxRacePolicy::beforeStep(m, t);
        }
        bool
        onMemAccess(Machine &m, Tid t, const Instruction &ins, Addr addr,
                    bool is_write) override
        {
            Quantum &q = quanta.back();
            EXPECT_EQ(q.tid, t);
            bool in_tx = m.htm().inFlightCount() > 0;
            ++q.accesses;
            q.txAccesses += in_tx ? 1 : 0;
            q.lastInTx = in_tx;
            order.push_back(t);
            return TxRacePolicy::onMemAccess(m, t, ins, addr, is_write);
        }
    };
    core::RunConfig rc;
    rc.mode = core::RunMode::TxRaceNoOpt;
    rc.machine.seed = 23;
    rc.machine.interruptPerStep = 0.0;
    QuantumProbe policy(rc);
    Machine m(p, rc.machine, policy);
    ASSERT_TRUE(m.run().ok());

    uint32_t tx_quanta = 0;
    uint32_t widest = 0;
    for (const Quantum &q : policy.quanta) {
        EXPECT_LE(q.accesses, Machine::kSchedQuantum);
        if (q.txAccesses > 0) {
            // An access with a transaction in flight ends its quantum.
            EXPECT_EQ(q.txAccesses, 1u);
            EXPECT_TRUE(q.lastInTx);
            ++tx_quanta;
        } else {
            widest = std::max(widest, q.accesses);
        }
    }
    EXPECT_EQ(tx_quanta, 2u * 20u * 8u);
    // One iteration of main's loop is two ops (store, loop.end), so a
    // full untransacted quantum holds half a quantum of stores.
    EXPECT_EQ(widest, Machine::kSchedQuantum / 2);

    // The workers' transactional phases interleave access by access:
    // neither runs to completion before the other starts.
    int switches = 0;
    for (size_t i = 1; i < policy.order.size(); ++i)
        switches += policy.order[i] != policy.order[i - 1];
    EXPECT_GT(switches, 50);
}

TEST(Scheduler, SeedChangesTheInterleaving)
{
    Program p = spinningWorkers(3, 100);
    auto trace_of = [&](uint64_t seed) {
        class OrderProbe : public ExecutionPolicy
        {
          public:
            std::vector<Tid> order;
            bool
            onMemAccess(Machine &, Tid t, const Instruction &, Addr,
                        bool) override
            {
                order.push_back(t);
                return true;
            }
        } policy;
        MachineConfig cfg;
        cfg.seed = seed;
        cfg.interruptPerStep = 0.0;
        Machine m(p, cfg, policy);
        m.run();
        return policy.order;
    };
    EXPECT_EQ(trace_of(1), trace_of(1));
    EXPECT_NE(trace_of(1), trace_of(2));
}

TEST(Scheduler, OversubscriptionScalesInterrupts)
{
    // Same per-thread work; 8 workers on 4 cores must see a much
    // higher interrupt-abort rate than 3 workers.
    auto interrupts_with = [&](uint32_t workers) {
        ProgramBuilder b;
        Addr a = b.alloc("a", 4096);
        FuncId worker = b.beginFunction("worker");
        b.loop(20, [&] {
            for (int k = 0; k < 8; ++k)
                b.load(AddrExpr::randomIn(a, 64, 8));
            b.syscall(1);
        });
        b.endFunction();
        b.beginFunction("main");
        b.spawn(worker, workers);
        b.joinAll();
        // Written after a spawn, so the workers' loads stay
        // instrumented and their regions stay transactional.
        b.loop(64, [&] { b.store(AddrExpr::perIter(a, 8)); });
        b.endFunction();
        Program p = b.build();

        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceNoOpt;
        cfg.machine.seed = 9;
        cfg.machine.interruptPerStep = 2e-3;
        core::RunResult r = core::runProgram(p, cfg);
        // Normalize per worker.
        return static_cast<double>(r.stats.get("tx.abort.unknown")) /
               workers;
    };
    double low = interrupts_with(3);
    double high = interrupts_with(8);
    EXPECT_GT(high, low * 2.0);
}
