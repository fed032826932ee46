/**
 * @file
 * Regenerates Table 1 of the paper: per-application transaction
 * statistics, detected races (TSan vs TxRace), and runtime overheads.
 *
 * Transaction counts are scaled down relative to the paper (the
 * paper's runs execute up to 160M transactions; see DESIGN.md), but
 * the qualitative structure is preserved: which abort classes
 * dominate where, who finds which races, and the overhead ordering.
 *
 * The `--csv` output at the documented settings is pinned by the
 * `bench_table1_golden` test (bench/golden/table1.csv);
 * scripts/table1_markdown.py renders EXPERIMENTS.md's Table 1 from it.
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

    Table table({"application", "committed", "conflict", "capacity",
                 "unknown", "TSan-races", "TxRace-races", "TSan-ovh",
                 "TxRace-ovh", "paper-TSan", "paper-TxRace",
                 "paper-TSan-races", "paper-TxRace-races"});
    std::vector<double> tsan_ovh, txrace_ovh;

    for (const std::string &name : bench::selectedApps(opt)) {
        workloads::WorkloadParams params;
        params.nWorkers = opt.workers;
        params.scale = opt.scale;
        workloads::AppModel app = workloads::makeApp(name, params);

        // Like the paper, results can be averaged over several
        // trials (--runs N; the paper uses five). Races reported are
        // the per-run mean, as in the paper's race columns.
        double o_tsan = 0.0, o_txr = 0.0;
        uint64_t committed = 0, conflicts = 0, capacity = 0,
                 unknown = 0, tsan_races = 0, txr_races = 0;
        core::RunResult tsan, txr;
        for (uint32_t run = 0; run < opt.runs; ++run) {
            bench::Options ropt = opt;
            ropt.seed = opt.seed + run;
            core::RunResult native =
                bench::runApp(app, core::RunMode::Native, ropt);
            tsan = bench::runApp(app, core::RunMode::TSan, ropt);
            txr = bench::runApp(app, core::RunMode::TxRaceProfLoopcut,
                                ropt);
            o_tsan += tsan.overheadVs(native);
            o_txr += txr.overheadVs(native);
            committed += txr.stats.get("tx.committed");
            conflicts += txr.stats.get("tx.abort.conflict");
            capacity += txr.stats.get("tx.abort.capacity");
            unknown += txr.stats.get("tx.abort.unknown");
            tsan_races += tsan.races.count();
            txr_races += txr.races.count();
        }
        o_tsan /= opt.runs;
        o_txr /= opt.runs;
        committed /= opt.runs;
        conflicts /= opt.runs;
        capacity /= opt.runs;
        unknown /= opt.runs;
        tsan_races /= opt.runs;
        txr_races /= opt.runs;
        tsan_ovh.push_back(o_tsan);
        txrace_ovh.push_back(o_txr);

        table.newRow();
        std::string label = app.name;
        if (txr_races < tsan_races)
            label += " (*)";
        table.cell(label);
        table.cell(committed);
        table.cell(conflicts);
        table.cell(capacity);
        table.cell(unknown);
        table.cell(tsan_races);
        table.cell(txr_races);
        table.cellFactor(o_tsan);
        table.cellFactor(o_txr);
        table.cellFactor(app.paper.tsanOverhead);
        table.cellFactor(app.paper.txraceOverhead);
        table.cell(app.paper.tsanRaces);
        table.cell(app.paper.txraceRaces);
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::cout << "\ngeomean overhead: TSan " << std::fixed;
    std::cout.precision(2);
    std::cout << geoMean(tsan_ovh) << "x vs TxRace "
              << geoMean(txrace_ovh)
              << "x   (paper: 11.68x vs 4.65x)\n";
    return 0;
}
