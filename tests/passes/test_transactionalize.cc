/**
 * @file
 * Unit and property tests for the transactionalization pass:
 * boundary placement, the small-region and uninstrumented-region
 * optimizations, loop-cut insertion, wrap-around safety (regression
 * for a real bug), and the structural post-condition over random
 * programs and all bundled workloads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ir/builder.hh"
#include "ir/printer.hh"
#include "passes/passes.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::ir;
using namespace txrace::passes;

namespace {

std::vector<OpCode>
opcodes(const Program &p, FuncId f)
{
    std::vector<OpCode> out;
    for (const auto &ins : p.function(f).body)
        out.push_back(ins.op);
    return out;
}

/** A block of work big enough to stay above the K threshold. */
void
bigWork(ProgramBuilder &b, Addr base)
{
    for (int i = 0; i < 6; ++i)
        b.load(AddrExpr::absolute(base + 8 * i));
}

} // namespace

TEST(Transactionalize, WrapsPlainFunction)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    auto ops = opcodes(p, 0);
    EXPECT_EQ(ops.front(), OpCode::TxBegin);
    EXPECT_EQ(ops.back(), OpCode::TxEnd);
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

TEST(Transactionalize, CutsAroundSyncOps)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.lock(0);
    bigWork(b, x);
    b.unlock(0);
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    // Sync ops must be outside transactions.
    bool in_tx = false;
    for (const auto &ins : p.function(0).body) {
        if (ins.op == OpCode::TxBegin)
            in_tx = true;
        if (ins.op == OpCode::TxEnd)
            in_tx = false;
        if (isSyncOp(ins.op) || ins.op == OpCode::Syscall) {
            EXPECT_FALSE(in_tx);
        }
    }
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

TEST(Transactionalize, CutsAroundSyscalls)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.syscall(1);
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    size_t begins = 0, ends = 0;
    for (const auto &ins : p.function(0).body) {
        begins += ins.op == OpCode::TxBegin;
        ends += ins.op == OpCode::TxEnd;
    }
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

TEST(Transactionalize, RemovesEmptyRegionBetweenAdjacentSyncs)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.lock(0);
    b.unlock(0);  // nothing in the critical section
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    for (size_t i = 0; i + 1 < p.function(0).body.size(); ++i) {
        bool empty_pair =
            p.function(0).body[i].op == OpCode::TxBegin &&
            p.function(0).body[i + 1].op == OpCode::TxEnd;
        EXPECT_FALSE(empty_pair);
    }
}

TEST(Transactionalize, SmallRegionForcedSlow)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.load(AddrExpr::absolute(x));  // 1 access < K=5
    b.compute(100);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    const auto &body = p.function(0).body;
    ASSERT_EQ(body.front().op, OpCode::TxBegin);
    EXPECT_EQ(body.front().arg1, 1u);  // slow-forced
}

TEST(Transactionalize, LoopMultiplierLiftsRegionAboveK)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(10, [&] { b.load(AddrExpr::absolute(x)); });  // est = 10
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    EXPECT_EQ(p.function(0).body.front().arg1, 0u);  // fast
}

TEST(Transactionalize, UninstrumentedRegionNotTransactionalized)
{
    ProgramBuilder b;
    Addr priv = b.allocPrivate("p", 256);
    b.beginFunction("main");
    for (int i = 0; i < 8; ++i)
        b.load(AddrExpr::absolute(priv + 8 * i));
    b.endFunction();
    Program p = b.build();
    privatize(p);
    transactionalize(p);
    for (const auto &ins : p.function(0).body) {
        EXPECT_NE(ins.op, OpCode::TxBegin);
        EXPECT_NE(ins.op, OpCode::TxEnd);
    }
}

TEST(Transactionalize, LoopCutInsertedInTransactionalLoops)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(20, [&] { b.load(AddrExpr::absolute(x)); });
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    const auto &body = p.function(0).body;
    // A LoopCut sits right before the LoopEnd, naming the LoopBegin.
    bool found = false;
    for (size_t i = 0; i + 1 < body.size(); ++i) {
        if (body[i].op == OpCode::LoopCut) {
            EXPECT_EQ(body[i + 1].op, OpCode::LoopEnd);
            uint32_t begin_pc =
                static_cast<uint32_t>(body[i + 1].match);
            EXPECT_EQ(body[i].arg0, body[begin_pc].id);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Transactionalize, NoLoopCutWhenDisabled)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(20, [&] { b.load(AddrExpr::absolute(x)); });
    b.endFunction();
    Program p = b.build();
    PassConfig cfg;
    cfg.insertLoopCuts = false;
    transactionalize(p, cfg);
    for (const auto &ins : p.function(0).body)
        EXPECT_NE(ins.op, OpCode::LoopCut);
}

TEST(Transactionalize, NoLoopCutForUninstrumentedLoops)
{
    ProgramBuilder b;
    Addr priv = b.allocPrivate("p", 64);
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.loop(20, [&] { b.loadPrivate(AddrExpr::absolute(priv)); });
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    for (const auto &ins : p.function(0).body)
        EXPECT_NE(ins.op, OpCode::LoopCut);
}

TEST(Transactionalize, WrapAroundTxEndIsPreserved)
{
    // Regression: a loop whose body ends a region mid-way (sync in
    // the body). The TxEnd at the top of the body also terminates the
    // region entered over the back edge and must survive the
    // empty-region cleanup.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(5, [&] {
        b.lock(0);
        bigWork(b, x);
        b.unlock(0);
        bigWork(b, x);  // executed between iterations' regions
    });
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

// ---- regions end at the exit of loops that hold a boundary ---------

namespace {

/** The opcodes that follow each LoopEnd of function @p f, in order
 *  (Nop at the function's end). */
std::vector<OpCode>
afterLoopEnds(const Program &p, FuncId f)
{
    const auto &body = p.function(f).body;
    std::vector<OpCode> out;
    for (size_t i = 0; i < body.size(); ++i)
        if (body[i].op == OpCode::LoopEnd)
            out.push_back(i + 1 < body.size() ? body[i + 1].op
                                              : OpCode::Nop);
    return out;
}

} // namespace

TEST(Transactionalize, SplitsAtTheExitOfASyscallLoopFollowedByCode)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(5, [&] {
        bigWork(b, x);
        b.syscall(1);
    });
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    const auto &body = p.function(0).body;
    size_t end = 0;
    while (body[end].op != OpCode::LoopEnd)
        ++end;
    ASSERT_LT(end + 3, body.size());
    EXPECT_EQ(body[end + 1].op, OpCode::TxEnd);
    EXPECT_EQ(body[end + 2].op, OpCode::TxBegin);
    EXPECT_EQ(body[end + 3].op, OpCode::Load);
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

TEST(Transactionalize, InnerBoundarySplitsTheOuterLoopExitToo)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(3, [&] {
        b.loop(4, [&] {
            bigWork(b, x);
            b.syscall(1);
        });
        bigWork(b, x);
    });
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    // Inner LoopEnd first, then the outer one: both exits split.
    EXPECT_EQ(afterLoopEnds(p, 0),
              (std::vector<OpCode>{OpCode::TxEnd, OpCode::TxEnd}));
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

TEST(Transactionalize, NoSplitPairWhenABoundaryOrTheEndFollowsTheLoop)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    b.loop(5, [&] {
        bigWork(b, x);
        b.syscall(1);
    });
    b.lock(0);
    bigWork(b, x);
    b.unlock(0);
    b.loop(5, [&] {
        bigWork(b, x);
        b.syscall(1);
    });
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    // Each loop exit lands on the TxEnd that the next boundary or the
    // function end needs anyway; no empty pair is left between them.
    const auto &body = p.function(0).body;
    for (size_t i = 0; i + 1 < body.size(); ++i)
        EXPECT_FALSE(body[i].op == OpCode::TxBegin &&
                     body[i + 1].op == OpCode::TxEnd);
    EXPECT_EQ(afterLoopEnds(p, 0),
              (std::vector<OpCode>{OpCode::TxEnd, OpCode::TxEnd}));
    EXPECT_EQ(body[body.size() - 2].op, OpCode::LoopEnd);
    size_t end = 0;
    while (body[end].op != OpCode::LoopEnd)
        ++end;
    EXPECT_EQ(body[end + 2].op, OpCode::LockAcquire);
    EXPECT_EQ(p.checkTransactionalForm(), "");
}

TEST(Transactionalize, NoSplitAfterABoundaryFreeLoop)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.loop(5, [&] { b.load(AddrExpr::absolute(x)); });
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    transactionalize(p);
    EXPECT_EQ(afterLoopEnds(p, 0), std::vector<OpCode>{OpCode::Load});
    size_t begins = 0;
    for (const auto &ins : p.function(0).body)
        begins += ins.op == OpCode::TxBegin;
    EXPECT_EQ(begins, 1u);
}

TEST(Transactionalize, LoopExitShapeRunsTheInLoopRegionBare)
{
    // A syscall loop followed by a racy store: with the split, the
    // region opened after the syscall only wraps the back-edge, so the
    // full pipeline runs it bare, and the store gets a region of its
    // own opened at the loop exit.
    ProgramBuilder b;
    Addr x = b.alloc("x", 64, 64);
    FuncId worker = b.beginFunction("worker");
    b.loop(10, [&] {
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
    Program prepared = preparedForTxRace(b.build());

    std::vector<uint64_t> marks;
    const auto &body = prepared.function(worker).body;
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i].op != OpCode::TxBegin)
            continue;
        marks.push_back(body[i].arg1);
        if (i > 0 && body[i - 1].op == OpCode::TxEnd) {
            // The exit region holds exactly the store.
            EXPECT_EQ(body[i + 1].op, OpCode::Store);
            EXPECT_EQ(body[i + 2].op, OpCode::TxEnd);
        }
    }
    EXPECT_EQ(marks, (std::vector<uint64_t>{kRegionBare, kRegionBare,
                                            kRegionForcedSlow}));
}

TEST(Transactionalize, PreservesInstructionPayloads)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.store(AddrExpr::absolute(x), "tagged store");
    b.compute(77);
    b.endFunction();
    Program p = b.build();
    Program copy = p;
    transactionalize(copy);
    bool found_store = false, found_compute = false;
    for (const auto &ins : copy.function(0).body) {
        if (ins.op == OpCode::Store && ins.tag == "tagged store")
            found_store = true;
        if (ins.op == OpCode::Compute && ins.arg0 == 77)
            found_compute = true;
    }
    EXPECT_TRUE(found_store);
    EXPECT_TRUE(found_compute);
}

TEST(Transactionalize, OriginalIdsStable)
{
    ProgramBuilder b;
    Addr x = b.alloc("x", 64);
    b.beginFunction("main");
    bigWork(b, x);
    b.endFunction();
    Program p = b.build();
    InstrId first_load = p.function(0).body[0].id;
    transactionalize(p);
    // The same static load keeps its id (race reports stay valid).
    EXPECT_EQ(p.instr(first_load).op, OpCode::Load);
}

// ---- property: post-condition over random programs -----------------

class TransactionalizeProperty
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TransactionalizeProperty, RandomProgramsSatisfyPostCondition)
{
    Rng rng(GetParam());
    for (int round = 0; round < 10; ++round) {
        ProgramBuilder b;
        Addr base = b.alloc("data", 4096);
        b.beginFunction("w");
        int depth = 0;
        size_t len = 10 + rng.below(30);
        for (size_t i = 0; i < len; ++i) {
            switch (rng.below(8)) {
              case 0:
                b.load(AddrExpr::randomIn(base, 64, 8));
                break;
              case 1:
                b.store(AddrExpr::randomIn(base, 64, 8));
                break;
              case 2:
                b.compute(rng.below(10) + 1);
                break;
              case 3:
                b.syscall(1);
                break;
              case 4:
                b.signal(rng.below(2));
                break;
              case 5:
                if (depth < 3) {
                    b.loopBegin(1 + rng.below(5));
                    ++depth;
                }
                break;
              case 6:
                if (depth > 0) {
                    b.loopEnd();
                    --depth;
                }
                break;
              default:
                b.loadPrivate(AddrExpr::randomIn(base, 64, 8));
                break;
            }
        }
        while (depth-- > 0)
            b.loopEnd();
        b.endFunction();
        Program p = b.build();
        transactionalize(p);  // panics internally if malformed
        EXPECT_EQ(p.checkTransactionalForm(), "");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransactionalizeProperty,
                         ::testing::Range<uint64_t>(1, 11));

TEST(Transactionalize, AllWorkloadsSatisfyPostCondition)
{
    for (const std::string &name : workloads::appNames()) {
        for (uint32_t workers : {2u, 4u, 8u}) {
            workloads::WorkloadParams params;
            params.nWorkers = workers;
            params.calibrate = false;
            workloads::AppModel app = workloads::makeApp(name, params);
            Program prepared = preparedForTxRace(app.program);
            EXPECT_EQ(prepared.checkTransactionalForm(), "")
                << name << " with " << workers << " workers";
        }
    }
}
