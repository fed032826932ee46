/**
 * @file
 * Golden tests for the IR printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/text.hh"

using namespace txrace;
using namespace txrace::ir;

namespace {

Instruction
make(OpCode code)
{
    Instruction i;
    i.op = code;
    return i;
}

} // namespace

TEST(Printer, FormatsLoadWithAddressParts)
{
    Instruction i = make(OpCode::Load);
    i.addr.base = 0x40;
    i.addr.threadStride = 8;
    i.addr.loopStride = 16;
    i.addr.loopDepth = 1;
    i.addr.randomCount = 4;
    i.addr.randomStride = 64;
    std::string s = formatInstr(i);
    EXPECT_EQ(s, "load [0x40 + tid*8 + i1*16 + rnd(4)*64]");
}

TEST(Printer, MarksUninstrumentedAccess)
{
    Instruction i = make(OpCode::Store);
    i.addr.base = 0x80;
    i.instrumented = false;
    EXPECT_EQ(formatInstr(i), "store [0x80] !noinstr");
}

TEST(Printer, FormatsSyncAndControl)
{
    Instruction lock = make(OpCode::LockAcquire);
    lock.arg0 = 3;
    EXPECT_EQ(formatInstr(lock), "lock id=3");

    Instruction barrier = make(OpCode::Barrier);
    barrier.arg0 = 1;
    barrier.arg1 = 4;
    EXPECT_EQ(formatInstr(barrier), "barrier id=1 n=4");

    Instruction join = make(OpCode::ThreadJoin);
    join.arg0 = ~0ull;
    EXPECT_EQ(formatInstr(join), "join all");

    Instruction join_one = make(OpCode::ThreadJoin);
    join_one.arg0 = 2;
    EXPECT_EQ(formatInstr(join_one), "join idx=2");

    Instruction loop = make(OpCode::LoopBegin);
    loop.arg0 = 5;
    loop.arg1 = 2;
    EXPECT_EQ(formatInstr(loop), "loop.begin trips=5+rnd(2)");

    Instruction slow = make(OpCode::TxBegin);
    slow.arg1 = 1;
    EXPECT_EQ(formatInstr(slow), "tx.begin slow");
    Instruction bare = make(OpCode::TxBegin);
    bare.arg1 = kRegionBare;
    EXPECT_EQ(formatInstr(bare), "tx.begin bare");

    Instruction cut = make(OpCode::LoopCut);
    cut.arg0 = 17;
    EXPECT_EQ(formatInstr(cut), "loop.cut loop=17");
}

TEST(Printer, AppendsTagAsComment)
{
    Instruction i = make(OpCode::Compute);
    i.arg0 = 9;
    i.tag = "warmup";
    EXPECT_EQ(formatInstr(i), "compute cost=9  ; warmup");
}

TEST(Printer, ProgramDumpHasStructure)
{
    ProgramBuilder b;
    b.beginFunction("worker");
    b.loop(3, [&] { b.compute(1); });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(0, 2);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    std::ostringstream os;
    writeProgramText(p, os);
    std::string out = os.str();
    EXPECT_NE(out.find("func @worker\n"), std::string::npos);
    EXPECT_NE(out.find("entry @main\n"), std::string::npos);
    // Loop body is indented one extra level; its end closes the level.
    EXPECT_NE(out.find("\n    compute cost=1\n  loop.end"),
              std::string::npos);
}
