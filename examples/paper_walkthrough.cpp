/**
 * @file
 * A narrated reproduction of the paper's mechanism figures, using the
 * event timeline to show each protocol step actually happening.
 *
 *  - Figure 3: conflict -> rollback -> TxFail write -> artificial
 *    aborts -> slow path -> pinpointed race.
 *  - Figure 4: the same race found with long transactions and missed
 *    with short (cut) ones.
 *  - Figure 5: a capacity-stuck slow thread racing a fast thread.
 *  - Figure 6: path alternation with a signal/wait edge tracked on
 *    the fast path — no false warning.
 */

#include <cstdio>
#include <iostream>

#include "core/driver.hh"
#include "core/report_format.hh"
#include "ir/builder.hh"

using namespace txrace;
using namespace txrace::ir;

namespace {

core::RunConfig
config(core::RunMode mode = core::RunMode::TxRaceDynLoopcut)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine.seed = 5;
    cfg.machine.interruptPerStep = 0.0;
    cfg.machine.recordTimeline = true;
    return cfg;
}

void
pad(ProgramBuilder &b, Addr base)
{
    for (int i = 0; i < 6; ++i)
        b.load(AddrExpr::absolute(base + 8 * i), "pad");
}

void
figure3()
{
    std::printf("== Figure 3: the TxFail protocol ==\n");
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr x = b.alloc("X", 8);
    FuncId worker = b.beginFunction("worker");
    b.loop(6, [&] {
        pad(b, data);
        b.store(AddrExpr::absolute(x), "X=... (unsynchronized)");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = config();
    core::RunResult r = core::runProgram(p, cfg);
    core::printTimeline(r.telemetry.flight, cfg.machine.faults, std::cout,
                        14);
    core::printRaceReport(p, r, std::cout);
    std::printf("\n");
}

void
figure4()
{
    std::printf("== Figure 4: transaction length vs detection ==\n");
    // The same far-apart race twice; with one long region per thread
    // the accesses share a transaction window, with per-iteration
    // cuts (short transactions) they do not.
    auto build = [](bool short_txs) {
        ProgramBuilder b;
        Addr data = b.alloc("data", 4096);
        Addr x = b.alloc("X", 8);
        FuncId t1 = b.beginFunction("t1");
        b.store(AddrExpr::absolute(x), "X=1");
        b.loop(30, [&] {
            pad(b, data);
            if (short_txs)
                b.syscall(1);  // cuts the region every iteration
        });
        b.endFunction();
        FuncId t2 = b.beginFunction("t2");
        b.loop(30, [&] {
            pad(b, data);
            if (short_txs)
                b.syscall(1);
        });
        b.store(AddrExpr::absolute(x), "X=2");
        b.endFunction();
        b.beginFunction("main");
        b.spawn(t1, 1);
        b.spawn(t2, 1);
        b.joinAll();
        b.endFunction();
        return b.build();
    };

    for (bool short_txs : {false, true}) {
        Program p = build(short_txs);
        size_t found = 0;
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            core::RunConfig cfg = config();
            cfg.machine.seed = seed;
            cfg.machine.recordTimeline = false;
            found += core::runProgram(p, cfg).races.count();
        }
        std::printf("  %s transactions: race found in %zu of 8 runs\n",
                    short_txs ? "short (cut)" : "long", found);
    }
    std::printf("  (the happens-before baseline reports it always)\n\n");
}

void
figure5()
{
    std::printf("== Figure 5: concurrent fast and slow paths ==\n");
    ProgramBuilder b;
    Addr data = b.alloc("data", 4096);
    Addr wide = b.alloc("wide", 16 * 4096 + 1024, 64);
    Addr x = b.alloc("X", 8);
    FuncId slowpoke = b.beginFunction("slowpoke");
    b.loop(10, [&] {
        pad(b, data);
        b.loop(12, [&] {  // overflows: this thread lives on the slow path
            AddrExpr e = AddrExpr::perThread(wide, 64);
            e.loopStride = 4096;
            b.store(e, "stream");
        });
        b.store(AddrExpr::absolute(x), "slow-path write to X");
        b.syscall(1);
    });
    b.endFunction();
    FuncId fast = b.beginFunction("fastpath");
    b.loop(30, [&] {
        pad(b, data);
        b.load(AddrExpr::absolute(x), "fast-path read of X");
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(slowpoke, 1);
    b.spawn(fast, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunConfig cfg = config(core::RunMode::TxRaceNoOpt);
    cfg.machine.recordTimeline = false;
    size_t found = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        cfg.machine.seed = seed;
        found += core::runProgram(p, cfg).races.count() > 0;
    }
    std::printf("  capacity keeps thread 1 on the slow path; strong\n"
                "  isolation catches its writes against the fast\n"
                "  thread's transactions in %zu of 8 runs (the paper:\n"
                "  detection works in one direction only).\n\n",
                found);
}

void
figure6()
{
    std::printf("== Figure 6: sync tracked on the fast path ==\n");
    ProgramBuilder b;
    Addr x = b.alloc("X", 8);
    FuncId t1 = b.beginFunction("t1");
    b.store(AddrExpr::absolute(x), "X=1");
    b.syscall(1);
    b.signal(0);
    b.compute(30);
    b.endFunction();
    FuncId t2 = b.beginFunction("t2");
    b.wait(0);
    b.store(AddrExpr::absolute(x), "X=2");
    b.syscall(1);
    b.compute(30);
    b.endFunction();
    b.beginFunction("main");
    b.spawn(t1, 1);
    b.spawn(t2, 1);
    b.joinAll();
    b.endFunction();
    Program p = b.build();

    core::RunResult r = core::runProgram(p, config());
    std::printf("  both stores of X are software-checked (tiny slow\n"
                "  regions), with a signal->wait edge between them\n"
                "  established while on the fast path.\n"
                "  false warnings reported: %zu (must be 0)\n\n",
                r.races.count());
}

} // namespace

int
main()
{
    figure3();
    figure4();
    figure5();
    figure6();
    return 0;
}
