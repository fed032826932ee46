/**
 * @file
 * Regenerates Table 2 of the paper: cost-effectiveness of TxRace
 * versus the TSan baseline. For each application, the TxRace
 * overhead normalized to TSan's, the recall (fraction of
 * TSan-reported races TxRace also reports; 1.0 when there are none),
 * and the cost-effectiveness ratio CE = recall / normalized-overhead
 * (TSan's CE is 1 by construction).
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

    Table table({"application", "overhead", "recall",
                 "cost-effectiveness", "paper-CE"});
    std::vector<double> g_ovh, g_recall, g_ce;

    const double paper_ce[] = {1.02, 2.21, 1.7, 12.17, 13.32, 1.9,
                               1.95, 1.15, 1.08, 2.83, 8.71, 1.15,
                               1.48, 1.55};
    size_t idx = 0;

    for (const std::string &name : bench::selectedApps(opt)) {
        workloads::AppModel app = bench::appModel(name, opt);

        core::RunResult native =
            bench::runApp(app, core::RunMode::Native, opt);
        core::RunResult tsan =
            bench::runApp(app, core::RunMode::TSan, opt);
        core::RunResult txr =
            bench::runApp(app, core::RunMode::TxRaceProfLoopcut, opt);

        double norm_ovh =
            txr.overheadVs(native) / tsan.overheadVs(native);
        double recall = core::recallOf(txr.races, tsan.races);
        double ce = norm_ovh > 0.0 ? recall / norm_ovh : 0.0;
        g_ovh.push_back(norm_ovh);
        g_recall.push_back(std::max(recall, 0.01));
        g_ce.push_back(ce);

        table.newRow();
        table.cell(app.name);
        table.cell(norm_ovh);
        table.cell(recall);
        table.cell(ce);
        if (opt.only.empty() && idx < 14)
            table.cell(paper_ce[idx]);
        else
            table.cell(std::string("-"));
        ++idx;
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\ngeomean: overhead " << std::fixed;
    std::cout.precision(2);
    std::cout << geoMean(g_ovh) << ", recall " << geoMean(g_recall)
              << ", cost-effectiveness " << geoMean(g_ce)
              << "  (paper: 0.38, 0.95, 2.38)\n";
    return 0;
}
