/**
 * @file
 * Regenerates Figure 7 of the paper: the TxRace runtime-overhead
 * breakdown per application, normalized to native execution — the
 * baseline work, the pure transaction-management cost (xbegin/xend,
 * TxFail read, fast-path hooks, happens-before tracking of sync
 * operations), and the cost of handling each abort class (wasted
 * transactional work plus the slow-path re-execution it triggers).
 *
 * The simulator attributes every cost unit to one of these buckets
 * online, so a single TxRace run per application yields the stack.
 */

#include <iostream>

#include "harness.hh"
#include "sim/costmodel.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace txrace;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    Table table({"application", "baseline", "xbegin/xend", "conflict",
                 "capacity", "unknown", "total"});
    std::vector<double> totals;

    for (const std::string &name : bench::selectedApps(opt)) {
        workloads::AppModel app = bench::appModel(name, opt);

        core::RunResult native =
            bench::runApp(app, core::RunMode::Native, opt);
        core::RunResult txr =
            bench::runApp(app, core::RunMode::TxRaceProfLoopcut, opt);

        auto norm = [&](sim::Bucket bucket) {
            return static_cast<double>(
                       txr.buckets[static_cast<size_t>(bucket)]) /
                   static_cast<double>(native.totalCost);
        };
        double total = txr.overheadVs(native);
        totals.push_back(total);

        table.newRow();
        table.cell(app.name);
        table.cellFactor(norm(sim::Bucket::Base));
        table.cellFactor(norm(sim::Bucket::Txn));
        table.cellFactor(norm(sim::Bucket::Conflict));
        table.cellFactor(norm(sim::Bucket::Capacity));
        table.cellFactor(norm(sim::Bucket::Unknown));
        table.cellFactor(total);
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\ngeomean total: " << std::fixed;
    std::cout.precision(2);
    std::cout << geoMean(totals)
              << "x  (paper Fig. 7 geomean components: xbegin/xend "
                 "17%, conflict 157%, capacity 126%, unknown 66%)\n";
    return 0;
}
