/**
 * @file
 * Ablation studies the paper discusses but does not plot:
 *
 * 1. Ideal-HTM projection (§8.2): "if there is an ideal HTM such that
 *    a transaction aborts only if there is a data conflict ... the
 *    runtime overhead of TxRace would be improved significantly."
 *    We grant TxRace exactly that — unbounded capacity, no interrupt
 *    (unknown) aborts, a deterministic capacity boundary — and
 *    measure the gap to the commodity-HTM configuration.
 *
 * 2. Lockset baseline (§9): Eraser-style lockset detection is cheap
 *    and schedule-insensitive but ignores condvar/barrier ordering,
 *    producing false reports the TxRace slow path never does. For
 *    each application we count Eraser warnings that the
 *    happens-before ground truth refutes.
 *
 * 3. Slow-path repair: the default (the TxFail protocol, plus a
 *    replay of the version-log window a conflict winner owes when it
 *    commits before TxFail lands) against the paper's TxFail
 *    protocol alone (§4.2), per application and as a geomean, with
 *    the detector checks each costs: the default run's replay checks
 *    (the pure protocol keeps no version log, so it replays nothing),
 *    the owed windows it dropped because the winner aborted and
 *    re-ran on the slow path, and the total checks of both runs.
 */

#include <iostream>

#include "harness.hh"
#include "workloads/patterns.hh"
#include "ir/builder.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace txrace;

namespace {

/**
 * The canonical lockset false positive: barrier-ordered
 * double-buffering. Worker t fills cell t in phase one; its neighbor
 * reads that cell in phase two. The barrier orders the phases, so
 * there is no race — but no lock ever protects the cells, so
 * Eraser's candidate sets drain to empty and it warns anyway.
 */
ir::Program
doubleBufferScenario(uint32_t workers)
{
    ir::ProgramBuilder b;
    ir::Addr cells = b.alloc("cells", (workers + 2) * 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        b.store(ir::AddrExpr::perThread(cells, 64), "fill own cell");
        b.barrier(0, workers);
        b.load(ir::AddrExpr::perThread(cells + 64, 64),
               "read neighbor cell");
        b.barrier(1, workers);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, workers);
    b.joinAll();
    b.endFunction();
    return b.build();
}

/** Every access the run's detector checked, on any path. */
uint64_t
detectorChecks(const core::RunResult &r)
{
    return r.stats.get("detector.reads") + r.stats.get("detector.writes");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    Table ideal({"application", "TxRace (commodity HTM)",
                 "TxRace (ideal HTM)", "capacity+unknown aborts"});
    Table lockset({"application", "TSan races", "Eraser warnings",
                   "false warnings", "Eraser ovh", "TxRace ovh"});
    Table repair({"application", "default ovh", "txfail ovh",
                  "default races", "txfail races", "replay checks",
                  "owed dropped", "default checks", "txfail checks"});
    std::vector<double> g_commodity, g_ideal, g_txfail;

    for (const std::string &name : bench::selectedApps(opt)) {
        workloads::AppModel app = bench::appModel(name, opt);

        core::RunResult native =
            bench::runApp(app, core::RunMode::Native, opt);
        core::RunResult txr =
            bench::runApp(app, core::RunMode::TxRaceProfLoopcut, opt);

        // Ideal HTM: conflict aborts remain, everything else vanishes.
        core::RunConfig icfg = bench::configFor(
            app, core::RunMode::TxRaceProfLoopcut, opt);
        icfg.machine.interruptPerStep = 0.0;
        icfg.machine.htm.capacityJitter = 0.0;
        icfg.machine.htm.l1Ways = 1u << 16;
        icfg.machine.htm.readSetMaxLines = 1u << 30;
        core::RunResult ideal_run =
            core::runProgram(app.program, icfg);

        g_commodity.push_back(txr.overheadVs(native));
        g_ideal.push_back(ideal_run.overheadVs(native));

        ideal.newRow();
        ideal.cell(app.name);
        ideal.cellFactor(txr.overheadVs(native));
        ideal.cellFactor(ideal_run.overheadVs(native));
        ideal.cell(txr.stats.get("tx.abort.capacity") +
                   txr.stats.get("tx.abort.unknown"));

        // Slow-path repair: the paper's pure protocol beside the default.
        core::RunConfig pcfg = bench::configFor(
            app, core::RunMode::TxRaceProfLoopcut, opt);
        pcfg.slowpath = core::SlowPathKind::TxFail;
        core::RunResult pure = core::runProgram(app.program, pcfg);
        g_txfail.push_back(pure.overheadVs(native));
        repair.newRow();
        repair.cell(app.name);
        repair.cellFactor(txr.overheadVs(native));
        repair.cellFactor(pure.overheadVs(native));
        repair.cell(static_cast<uint64_t>(txr.races.count()));
        repair.cell(static_cast<uint64_t>(pure.races.count()));
        repair.cell(txr.stats.get("detector.replay_checks"));
        repair.cell(txr.stats.get("htm.vlog.owed_dropped"));
        repair.cell(detectorChecks(txr));
        repair.cell(detectorChecks(pure));

        // Lockset comparison.
        core::RunResult tsan =
            bench::runApp(app, core::RunMode::TSan, opt);
        core::RunResult eraser =
            bench::runApp(app, core::RunMode::Eraser, opt);
        uint64_t confirmed = eraser.races.intersectCount(tsan.races);

        lockset.newRow();
        lockset.cell(app.name);
        lockset.cell(static_cast<uint64_t>(tsan.races.count()));
        lockset.cell(static_cast<uint64_t>(eraser.races.count()));
        lockset.cell(static_cast<uint64_t>(eraser.races.count()) -
                     confirmed);
        lockset.cellFactor(eraser.overheadVs(native));
        lockset.cellFactor(txr.overheadVs(native));
    }

    // §7: the paper instruments one hook for both paths ("it would be
    // ideal to clone the codes ... we leave this optimization as
    // future work"). Model the uncloned build by charging every
    // fast-path hook, and the cloned build (our default) at zero.
    {
        std::vector<double> uncloned, cloned;
        for (const std::string &name : bench::selectedApps(opt)) {
            workloads::AppModel app = bench::appModel(name, opt);
            core::RunResult native =
                bench::runApp(app, core::RunMode::Native, opt);
            core::RunConfig cfg = bench::configFor(
                app, core::RunMode::TxRaceProfLoopcut, opt);
            cfg.machine.cost.fastHookCost = 2;
            core::RunResult u = core::runProgram(app.program, cfg);
            cfg.machine.cost.fastHookCost = 0;
            core::RunResult c = core::runProgram(app.program, cfg);
            uncloned.push_back(u.overheadVs(native));
            cloned.push_back(c.overheadVs(native));
        }
        std::cout << "=== Fast/slow path code cloning (paper §7) ==="
                  << "\ngeomean TxRace overhead: shared hooks "
                  << std::fixed;
        std::cout.precision(2);
        std::cout << geoMean(uncloned) << "x vs cloned paths "
                  << geoMean(cloned) << "x\n\n";
    }

    std::cout << "=== Ideal-HTM projection (paper §8.2) ===\n";
    if (opt.csv)
        ideal.printCsv(std::cout);
    else
        ideal.print(std::cout);
    std::cout << "\ngeomean: commodity " << std::fixed;
    std::cout.precision(2);
    std::cout << geoMean(g_commodity) << "x vs ideal "
              << geoMean(g_ideal) << "x\n\n";

    std::cout << "=== Slow-path repair: winner replay + TxFail vs TxFail "
                 "alone (paper §4.2, §6) ===\n";
    if (opt.csv)
        repair.printCsv(std::cout);
    else
        repair.print(std::cout);
    std::cout << "\ngeomean: default " << geoMean(g_commodity)
              << "x vs txfail " << geoMean(g_txfail) << "x\n\n";

    std::cout << "=== Lockset (Eraser) baseline (paper §9) ===\n";
    if (opt.csv)
        lockset.printCsv(std::cout);
    else
        lockset.print(std::cout);
    std::cout << "\n(False warnings = Eraser reports the "
                 "happens-before ground truth refutes; TxRace "
                 "reports none by construction. The bundled "
                 "workloads lock what they share, so Eraser's blind "
                 "spot shows up in the scenario below instead.)\n";

    // Shadow-cell budget (§5): the paper configures TSan "to have
    // enough shadow cells to be sound"; stock TSan keeps N=4 and
    // evicts randomly. Measure the recall cost of small budgets on
    // the most read-shared application.
    {
        workloads::AppModel app =
            bench::appModel(opt.only.empty() ? "facesim" : opt.only, opt);
        core::RunConfig cfg =
            bench::configFor(app, core::RunMode::TSan, opt);
        core::RunResult sound = core::runProgram(app.program, cfg);
        std::cout << "\n=== TSan shadow-cell budget (" << app.name
                  << ", §5) ===\n";
        std::cout << "unbounded (sound): " << sound.races.count()
                  << " races\n";
        for (uint32_t cells : {1u, 2u, 4u}) {
            cfg.machine.det.maxShadowCells = cells;
            core::RunResult r = core::runProgram(app.program, cfg);
            std::cout << cells << " shadow cell(s): "
                      << r.races.count() << " races, "
                      << r.stats.get("detector.evictions")
                      << " evictions\n";
        }
    }

    // RaceTM (§9): hardware-only reporting over the bug-pattern
    // catalog — fast, but line-granular, so false sharing false-flags.
    {
        Table rtm({"pattern", "true races", "TSan", "TxRace",
                   "RaceTM", "RaceTM verdict"});
        for (const std::string &name : workloads::patternNames()) {
            workloads::Pattern pat = workloads::makePattern(name);
            core::RunConfig cfg;
            cfg.machine.seed = opt.seed;
            cfg.machine.interruptPerStep = 0.0;
            cfg.mode = core::RunMode::TSan;
            core::RunResult tsan = core::runProgram(pat.program, cfg);
            cfg.mode = core::RunMode::TxRaceProfLoopcut;
            core::RunResult txr = core::runProgram(pat.program, cfg);
            cfg.mode = core::RunMode::RaceTM;
            core::RunResult rt = core::runProgram(pat.program, cfg);
            rtm.newRow();
            rtm.cell(pat.name);
            rtm.cell(static_cast<uint64_t>(pat.trueRaces));
            rtm.cell(static_cast<uint64_t>(tsan.races.count()));
            rtm.cell(static_cast<uint64_t>(txr.races.count()));
            rtm.cell(static_cast<uint64_t>(rt.races.count()));
            const char *verdict =
                rt.races.count() > 0 && pat.trueRaces == 0
                    ? "FALSE ALARM"
                    : (rt.races.count() < (pat.trueRaces ? 1u : 0u)
                           ? "miss"
                           : "ok");
            rtm.cell(std::string(verdict));
        }
        std::cout << "\n=== RaceTM hardware-only reporting "
                     "(paper §9) over the bug-pattern catalog ===\n";
        if (opt.csv)
            rtm.printCsv(std::cout);
        else
            rtm.print(std::cout);
    }

    // Barrier-ordered double buffering: race-free, yet lockset-flagged.
    {
        ir::Program prog = doubleBufferScenario(opt.workers);
        core::RunConfig cfg;
        cfg.machine.seed = opt.seed;
        cfg.mode = core::RunMode::TSan;
        core::RunResult tsan = core::runProgram(prog, cfg);
        cfg.mode = core::RunMode::Eraser;
        core::RunResult eraser = core::runProgram(prog, cfg);
        cfg.mode = core::RunMode::TxRaceProfLoopcut;
        core::RunResult txr = core::runProgram(prog, cfg);
        std::cout << "\n=== barrier-ordered double buffer (race-free)"
                     " ===\n"
                  << "TSan: " << tsan.races.count()
                  << " races, TxRace: " << txr.races.count()
                  << " races, Eraser: " << eraser.races.count()
                  << " FALSE warning(s)\n";
    }
    return 0;
}
