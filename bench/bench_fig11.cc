/**
 * @file
 * Regenerates Figure 11 of the paper: cost-effectiveness of TxRace
 * versus TSan with sampling at 10%, 50%, and 100%, over the
 * applications in which at least one race is detected. CE is
 * recall / (overhead normalized to full TSan); full TSan's CE is 1.
 */

#include <iostream>

#include "harness.hh"
#include "support/table.hh"

using namespace txrace;

namespace {

const char *kRacyApps[] = {"fluidanimate", "vips", "raytrace",
                           "ferret", "x264", "bodytrack", "facesim",
                           "streamcluster", "canneal"};

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    Table table({"application", "sampling 10%", "sampling 50%",
                 "sampling 100%", "TxRace"});

    std::vector<std::string> apps;
    if (opt.only.empty())
        apps.assign(std::begin(kRacyApps), std::end(kRacyApps));
    else
        apps.push_back(opt.only);

    for (const std::string &name : apps) {
        workloads::AppModel app = bench::appModel(name, opt);

        core::RunResult native =
            bench::runApp(app, core::RunMode::Native, opt);
        core::RunResult tsan =
            bench::runApp(app, core::RunMode::TSan, opt);
        double tsan_ovh = tsan.overheadVs(native);

        auto ce_of = [&](const core::RunResult &r) {
            double norm = r.overheadVs(native) / tsan_ovh;
            double recall = core::recallOf(r.races, tsan.races);
            return norm > 0.0 ? recall / norm : 0.0;
        };

        table.newRow();
        table.cell(app.name);
        for (double rate : {0.1, 0.5, 1.0}) {
            core::RunConfig cfg = bench::configFor(
                app, core::RunMode::TSanSampling, opt);
            cfg.sampleRate = rate;
            core::RunResult r = core::runProgram(app.program, cfg);
            table.cell(ce_of(r));
        }
        core::RunResult txr =
            bench::runApp(app, core::RunMode::TxRaceProfLoopcut, opt);
        table.cell(ce_of(txr));
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n(paper Fig. 11: TxRace beats TSan+sampling on "
                 "almost all racy applications except x264)\n";
    return 0;
}
