/**
 * @file
 * Regenerates Figures 12 and 13 of the paper: for bodytrack, the
 * runtime overhead (Fig. 12) and the recall (Fig. 13) of TSan with
 * sampling as the sampling rate sweeps 0..100%, both normalized to
 * full (100%) sampling — plus TxRace's operating point for
 * comparison. In the paper, TxRace costs as much as sampling ~25.5%
 * of memory operations but detects as much as sampling ~47.2%.
 *
 * Recall at each rate is averaged over three seeds (sampling is
 * stochastic); the paper likewise averages five trials.
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
        opt.only = "bodytrack";

    workloads::AppModel app = bench::appModel(opt.only, opt);

    core::RunResult native =
        bench::runApp(app, core::RunMode::Native, opt);
    core::RunResult tsan = bench::runApp(app, core::RunMode::TSan, opt);
    double full_extra = tsan.overheadVs(native) - 1.0;

    Table table({"sampling rate", "normalized overhead (Fig.12)",
                 "recall (Fig.13)"});
    constexpr int kSeeds = 3;
    for (int pct = 0; pct <= 100; pct += 10) {
        double ovh_sum = 0.0, recall_sum = 0.0;
        for (int s = 0; s < kSeeds; ++s) {
            core::RunConfig cfg = bench::configFor(
                app, core::RunMode::TSanSampling, opt);
            cfg.sampleRate = pct / 100.0;
            cfg.machine.seed = opt.seed + static_cast<uint64_t>(s);
            core::RunResult r = core::runProgram(app.program, cfg);
            ovh_sum += (r.overheadVs(native) - 1.0) / full_extra;
            recall_sum += core::recallOf(r.races, tsan.races);
        }
        table.newRow();
        table.cell(std::to_string(pct) + "%");
        table.cell(ovh_sum / kSeeds);
        table.cell(recall_sum / kSeeds);
    }

    core::RunResult txr =
        bench::runApp(app, core::RunMode::TxRaceProfLoopcut, opt);
    table.newRow();
    table.cell(std::string("TxRace"));
    table.cell((txr.overheadVs(native) - 1.0) / full_extra);
    table.cell(core::recallOf(txr.races, tsan.races));

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n(paper: TxRace at normalized overhead 0.69 — "
                 "equivalent to ~25.5% sampling cost — with recall "
                 "0.75 — equivalent to ~47.2% sampling)\n";
    return 0;
}
