/**
 * @file
 * Tests for the .txr text format: parsing, diagnostics, and the
 * serialize/parse round-trip property over random programs, the
 * bundled workloads, and instrumented (transactionalized) programs.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "ir/builder.hh"
#include "ir/text.hh"
#include "passes/passes.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::ir;

namespace {

/** Structural equality of two programs (ids/matches recomputed by
 *  finalize, so compare the semantic payload per instruction). */
void
expectSamePrograms(const Program &a, const Program &b)
{
    ASSERT_EQ(a.numFunctions(), b.numFunctions());
    EXPECT_EQ(a.entry(), b.entry());
    EXPECT_EQ(a.addrSpaceSize(), b.addrSpaceSize());
    ASSERT_EQ(a.privateRanges().size(), b.privateRanges().size());
    for (size_t i = 0; i < a.privateRanges().size(); ++i) {
        EXPECT_EQ(a.privateRanges()[i].lo, b.privateRanges()[i].lo);
        EXPECT_EQ(a.privateRanges()[i].hi, b.privateRanges()[i].hi);
    }
    for (FuncId f = 0; f < a.numFunctions(); ++f) {
        const Function &fa = a.function(f);
        const Function &fb = b.function(f);
        EXPECT_EQ(fa.name, fb.name);
        ASSERT_EQ(fa.body.size(), fb.body.size()) << fa.name;
        for (size_t i = 0; i < fa.body.size(); ++i) {
            const Instruction &x = fa.body[i];
            const Instruction &y = fb.body[i];
            EXPECT_EQ(x.op, y.op) << fa.name << ":" << i;
            EXPECT_EQ(x.addr, y.addr) << fa.name << ":" << i;
            EXPECT_EQ(x.arg0, y.arg0) << fa.name << ":" << i;
            EXPECT_EQ(x.arg1, y.arg1) << fa.name << ":" << i;
            EXPECT_EQ(x.instrumented, y.instrumented)
                << fa.name << ":" << i;
            EXPECT_EQ(x.tag, y.tag) << fa.name << ":" << i;
        }
    }
}

Program
roundTrip(const Program &p)
{
    std::ostringstream os;
    writeProgramText(p, os);
    std::istringstream is(os.str());
    return parseProgramText(is);
}

} // namespace

TEST(TextFormat, ParsesAMinimalProgram)
{
    std::istringstream is(R"(# a comment
space 0x1000
func @main
  compute cost=7
  load [0x40]
end
entry @main
)");
    Program p = parseProgramText(is);
    EXPECT_EQ(p.numFunctions(), 1u);
    EXPECT_EQ(p.addrSpaceSize(), 0x1000u);
    ASSERT_EQ(p.function(0).body.size(), 2u);
    EXPECT_EQ(p.function(0).body[0].arg0, 7u);
    EXPECT_TRUE(p.finalized());
}

TEST(TextFormat, ParsesEveryAddressTerm)
{
    std::istringstream is(
        "func @main\n"
        "  store [0x40 + tid*8 + i1*512 + rnd(16)*64]  ; full expr\n"
        "end\n");
    Program p = parseProgramText(is);
    const AddrExpr &a = p.function(0).body[0].addr;
    EXPECT_EQ(a.base, 0x40u);
    EXPECT_EQ(a.threadStride, 8u);
    EXPECT_EQ(a.loopDepth, 1u);
    EXPECT_EQ(a.loopStride, 512u);
    EXPECT_EQ(a.randomCount, 16u);
    EXPECT_EQ(a.randomStride, 64u);
    EXPECT_EQ(p.function(0).body[0].tag, "full expr");
}

TEST(TextFormat, ParsesSyncAndControlForms)
{
    std::istringstream is(
        "func @w\n"
        "  lock id=3\n"
        "  unlock id=3\n"
        "  signal id=1\n"
        "  wait id=1\n"
        "  barrier id=2 n=4\n"
        "  syscall cost=2\n"
        "  loop.begin trips=5+rnd(3)\n"
        "    nop\n"
        "  loop.end\n"
        "end\n"
        "func @main\n"
        "  create fn=0\n"
        "  join all\n"
        "end\n"
        "entry @main\n");
    Program p = parseProgramText(is);
    const auto &body = p.function(0).body;
    EXPECT_EQ(body[4].arg1, 4u);
    EXPECT_EQ(body[6].arg0, 5u);
    EXPECT_EQ(body[6].arg1, 3u);
    EXPECT_EQ(p.function(1).body[1].arg0, ~0ull);
    EXPECT_EQ(p.entry(), 1u);
}

TEST(TextFormat, DefaultEntryIsLastFunction)
{
    std::istringstream is("func @a\n  nop\nend\nfunc @b\n  nop\nend\n");
    Program p = parseProgramText(is);
    EXPECT_EQ(p.entry(), 1u);
}

TEST(TextFormat, RoundTripSmallProgram)
{
    ProgramBuilder b;
    Addr priv = b.allocPrivate("p", 128);
    Addr shared = b.alloc("s", 256);
    FuncId worker = b.beginFunction("worker");
    b.loopJitter(5, 2, [&] {
        b.load(AddrExpr::randomIn(shared, 8, 8), "lookup");
        b.storePrivate(AddrExpr::perThread(priv, 8));
        b.compute(3);
    });
    b.barrier(0, 2);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();
    expectSamePrograms(p, roundTrip(p));
}

TEST(TextFormat, RoundTripInstrumentedProgram)
{
    // Every region mark survives: the never-written table's region is
    // bare, the store region is forced slow, the shared loads' region
    // (main writes them after the join) is a regular one.
    ProgramBuilder b;
    Addr shared = b.alloc("s", 256);
    Addr table = b.alloc("t", 256);
    FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        for (int i = 0; i < 6; ++i)
            b.load(AddrExpr::absolute(shared + 8 * i));
        b.syscall(1);
        b.load(AddrExpr::absolute(table));
        b.syscall(1);
        b.store(AddrExpr::absolute(shared + 64));
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.loop(6, [&] { b.store(AddrExpr::perIter(shared, 8)); });
    b.endFunction();
    Program p = passes::preparedForTxRace(b.build());
    Program q = roundTrip(p);
    expectSamePrograms(p, q);
    EXPECT_EQ(q.checkTransactionalForm(), "");
    std::set<uint64_t> marks;
    for (const Instruction &ins : q.function(worker).body)
        if (ins.op == OpCode::TxBegin)
            marks.insert(ins.arg1);
    EXPECT_EQ(marks, (std::set<uint64_t>{0, kRegionForcedSlow,
                                         kRegionBare}));
}

TEST(TextFormat, RoundTripAllWorkloads)
{
    for (const std::string &name : workloads::appNames()) {
        workloads::WorkloadParams params;
        params.calibrate = false;
        workloads::AppModel app = workloads::makeApp(name, params);
        expectSamePrograms(app.program, roundTrip(app.program));
    }
}

class TextRoundTripProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TextRoundTripProperty, RandomProgramsSurvive)
{
    Rng rng(GetParam());
    for (int round = 0; round < 5; ++round) {
        ProgramBuilder b;
        Addr base = b.alloc("d", 4096);
        b.beginFunction("w");
        int depth = 0;
        size_t len = 5 + rng.below(25);
        for (size_t i = 0; i < len; ++i) {
            switch (rng.below(9)) {
              case 0:
                b.load(AddrExpr::randomIn(base, 64, 8),
                       rng.chance(0.3) ? "tagged load" : "");
                break;
              case 1: {
                AddrExpr e;
                e.base = base + rng.below(64) * 8;
                e.threadStride = rng.below(3) * 8;
                if (depth > 0) {
                    e.loopStride = rng.below(3) * 8;
                    // loopDepth is only meaningful (and serialized)
                    // alongside a nonzero stride.
                    if (e.loopStride != 0)
                        e.loopDepth =
                            static_cast<uint32_t>(rng.below(
                                static_cast<uint64_t>(depth)));
                }
                b.store(e);
                break;
              }
              case 2:
                b.compute(rng.below(20) + 1);
                break;
              case 3:
                b.syscall(rng.below(5));
                break;
              case 4:
                b.lock(rng.below(3));
                b.unlock(rng.below(3));
                break;
              case 5:
                b.signal(rng.below(2));
                break;
              case 6:
                if (depth < 3) {
                    b.loopBegin(1 + rng.below(6), rng.below(3));
                    ++depth;
                }
                break;
              case 7:
                if (depth > 0) {
                    b.loopEnd();
                    --depth;
                }
                break;
              default:
                b.loadPrivate(AddrExpr::absolute(base));
                break;
            }
        }
        while (depth-- > 0)
            b.loopEnd();
        b.endFunction();
        Program p = b.build();
        expectSamePrograms(p, roundTrip(p));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 9));

TEST(TextFormatDeathTest, DiagnosesBadInput)
{
    auto parse = [](const char *text) {
        std::istringstream is(text);
        parseProgramText(is);
    };
    EXPECT_EXIT(parse("func @f\n  bogus op\nend\n"),
                testing::ExitedWithCode(1), "unknown mnemonic");
    EXPECT_EXIT(parse("compute cost=1\n"),
                testing::ExitedWithCode(1), "outside func");
    EXPECT_EXIT(parse("func @f\n  compute cost=1\n"),
                testing::ExitedWithCode(1), "missing 'end'");
    EXPECT_EXIT(parse(""), testing::ExitedWithCode(1),
                "no functions");
    EXPECT_EXIT(parse("func @f\n  nop\nend\nentry @zzz\n"),
                testing::ExitedWithCode(1), "not defined");
    EXPECT_EXIT(parse("func @f\n  load [xyz]\nend\n"),
                testing::ExitedWithCode(1), "number");
    EXPECT_EXIT(parse("func @f\n  load [0x40] trailing\nend\n"),
                testing::ExitedWithCode(1), "trailing");
}

TEST(TextFormatDeathTest, UnbalancedLoopCaughtByFinalize)
{
    std::istringstream is("func @f\n  loop.end\nend\n");
    EXPECT_EXIT(parseProgramText(is), testing::ExitedWithCode(1),
                "unmatched LoopEnd");
}
