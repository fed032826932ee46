/**
 * @file
 * Regenerates Figure 9 of the paper: effectiveness of the loop-cut
 * optimization. Four configurations per application — the TSan
 * baseline and TxRace with no loop-cutting (falls back to the slow
 * path on every capacity abort), with the dynamically learned
 * threshold, and with the profiled threshold (which avoids even the
 * first capacity abort of a loop).
 */

#include <iostream>

#include "harness.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace txrace;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    Table table({"application", "TSan", "TxRace-NoOpt",
                 "TxRace-DynLoopcut", "TxRace-ProfLoopcut",
                 "capacity NoOpt/Dyn/Prof"});
    std::vector<double> g_tsan, g_noopt, g_dyn, g_prof;

    // Overheads are the mean of several seeds, as the paper averages
    // five trials per configuration.
    constexpr int kSeeds = 5;

    for (const std::string &name : bench::selectedApps(opt)) {
        workloads::AppModel app = bench::appModel(name, opt);

        const core::RunMode modes[] = {
            core::RunMode::TSan, core::RunMode::TxRaceNoOpt,
            core::RunMode::TxRaceDynLoopcut,
            core::RunMode::TxRaceProfLoopcut};
        double mean[4] = {};
        uint64_t capacity[4] = {};
        for (int s = 0; s < kSeeds; ++s) {
            bench::Options seed_opt = opt;
            seed_opt.seed = opt.seed + static_cast<uint64_t>(s);
            core::RunResult native =
                bench::runApp(app, core::RunMode::Native, seed_opt);
            for (int m = 0; m < 4; ++m) {
                core::RunResult r =
                    bench::runApp(app, modes[m], seed_opt);
                mean[m] += r.overheadVs(native) / kSeeds;
                capacity[m] += r.stats.get("tx.abort.capacity");
            }
        }

        g_tsan.push_back(mean[0]);
        g_noopt.push_back(mean[1]);
        g_dyn.push_back(mean[2]);
        g_prof.push_back(mean[3]);

        table.newRow();
        table.cell(app.name);
        for (int m = 0; m < 4; ++m)
            table.cellFactor(mean[m]);
        table.cell(std::to_string(capacity[1] / kSeeds) + "/" +
                   std::to_string(capacity[2] / kSeeds) + "/" +
                   std::to_string(capacity[3] / kSeeds));
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\ngeomean: TSan " << std::fixed;
    std::cout.precision(2);
    std::cout << geoMean(g_tsan) << "x, NoOpt " << geoMean(g_noopt)
              << "x, DynLoopcut " << geoMean(g_dyn) << "x, ProfLoopcut "
              << geoMean(g_prof)
              << "x  (paper: 11.68x / - / 5.34x / 4.65x)\n";
    return 0;
}
