/**
 * @file
 * Regenerates Figure 10 of the paper: the number of distinct data
 * races vips accumulates across repeated TxRace runs. Overlap-based
 * detection is sensitive to scheduling, so each run (seed) finds a
 * different subset of the 112 static races; the union converges to
 * the full TSan-reported set after a handful of runs (seven in the
 * paper).
 */

#include <iostream>

#include "harness.hh"
#include "support/table.hh"

using namespace txrace;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);
    if (opt.only.empty())
        opt.only = "vips";
    constexpr int kRuns = 7;

    workloads::AppModel app = bench::appModel(opt.only, opt);

    core::RunResult tsan =
        bench::runApp(app, core::RunMode::TSan, opt);

    Table table({"run", "seed", "races this run", "new",
                 "cumulative distinct", "TSan total"});
    detector::RaceSet cumulative;
    for (int run = 1; run <= kRuns; ++run) {
        bench::Options run_opt = opt;
        run_opt.seed = opt.seed + static_cast<uint64_t>(run - 1);
        core::RunResult txr = bench::runApp(
            app, core::RunMode::TxRaceProfLoopcut, run_opt);
        size_t before = cumulative.count();
        cumulative.merge(txr.races);
        table.newRow();
        table.cell(static_cast<uint64_t>(run));
        table.cell(run_opt.seed);
        table.cell(static_cast<uint64_t>(txr.races.count()));
        table.cell(static_cast<uint64_t>(cumulative.count() - before));
        table.cell(static_cast<uint64_t>(cumulative.count()));
        table.cell(static_cast<uint64_t>(tsan.races.count()));
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n(paper Fig. 10: ~79 races per run, all 112 "
                 "distinct races accumulated by run 7)\n";
    return 0;
}
