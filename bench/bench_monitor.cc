/**
 * @file
 * Monitor-mode harness: the budget-versus-recall trade on the
 * sustained server soak.
 *
 * The apache-stream scenario is run once without a budget and then
 * under `--monitor` at a sweep of budget percentages. For each point
 * the table reports total virtual cost, the overhead ratio against
 * the native Base spend, the worst complete window's overhead next to
 * its hard allowance, and recall against the planted ground truth.
 * The headline claim: the budget holds in EVERY window at every
 * sweep point, and tightening it sheds recall gradually — never
 * precision, never the budget.
 *
 *   bench_monitor [--workers N] [--seed N] [--csv] [--json FILE]
 */

#include <algorithm>
#include <iostream>
#include <set>
#include <string>

#include "core/fingerprint.hh"
#include "harness.hh"
#include "support/log.hh"
#include "support/table.hh"

using namespace txrace;

namespace {

std::set<std::string>
labels(const workloads::AppModel &app, const core::RunResult &r)
{
    std::set<std::string> out;
    for (const auto &[sig, race] :
         core::fingerprintedRaces(app.program, r.races))
        out.insert(sig.label);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    workloads::AppModel app = bench::appModel("apache-stream", opt);

    std::set<std::string> truth;
    for (const workloads::RaceLabel &label : app.groundTruth)
        truth.insert(core::raceLabelKey(label.a, label.b));

    const double budgets[] = {0.0, 2.0, 5.0, 10.0, 20.0};
    Table table({"budget", "cost", "overhead", "worst win", "allowed",
                 "hard-over", "cuts", "skips", "recall", "false pos"});

    bool all_held = true;
    bool all_precise = true;
    for (double pct : budgets) {
        core::RunConfig cfg =
            bench::configFor(app, core::RunMode::TxRaceProfLoopcut,
                             opt);
        cfg.governor.enabled = true;
        if (pct > 0.0) {
            cfg.budget.enabled = true;
            cfg.budget.budgetPct = pct;
        }
        core::RunResult r = core::runProgram(app.program, cfg);
        if (!r.error.ok()) {
            std::cerr << "budget " << pct << "%: abnormal end: "
                      << sim::runErrorKindName(r.error.kind) << "\n";
            return 1;
        }

        uint64_t base =
            r.buckets[static_cast<size_t>(sim::Bucket::Base)];
        uint64_t worst = 0, hard_over = 0;
        for (const core::BudgetWindow &w : r.budget.windows) {
            worst = std::max(worst, w.overhead);
            hard_over += w.hardOver ? 1 : 0;
        }
        uint64_t allowed = static_cast<uint64_t>(
            r.budget.budgetPct / 100.0 *
            static_cast<double>(r.budget.windowBase));

        std::set<std::string> found = labels(app, r);
        uint64_t false_pos = 0;
        for (const std::string &l : found)
            false_pos += truth.count(l) ? 0 : 1;
        double recall = truth.empty()
            ? 1.0
            : static_cast<double>(found.size() - false_pos) /
                  static_cast<double>(truth.size());

        // Below 2% the un-gateable floor (sync tracking, gate
        // branches) alone can breach a window; 0.3% ends in a
        // structured Budget error. The compliance claim is made at
        // 2% and above.
        if (pct >= 2.0 && hard_over > 0)
            all_held = false;
        if (false_pos > 0)
            all_precise = false;

        table.newRow();
        table.cell(pct > 0.0 ? strprintf("%.0f%%", pct)
                             : std::string("off"));
        table.cell(r.totalCost);
        table.cellFactor(base == 0
                             ? 0.0
                             : static_cast<double>(r.totalCost) /
                                   static_cast<double>(base));
        table.cell(pct > 0.0 ? strprintf("%llu",
                                         (unsigned long long)worst)
                             : std::string("-"));
        table.cell(pct > 0.0 ? strprintf("%llu",
                                         (unsigned long long)allowed)
                             : std::string("-"));
        table.cell(hard_over);
        table.cell(r.budget.siteCuts);
        table.cell(r.budget.sampledSkips);
        table.cell(recall, 2);
        table.cell(false_pos);
    }

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::cout << "\nverdict: budget "
              << (all_held ? "held in every window at >=2%"
                           : "was EXCEEDED at >=2%") << ", detection "
              << (all_precise ? "invented no races"
                              : "REPORTED FALSE POSITIVES") << "\n";
    return all_held && all_precise ? 0 : 1;
}
