/**
 * @file
 * Command-line front end: run any bundled workload under any
 * detection mode and print statistics plus the full race report.
 *
 *   txrace_run --app vips --mode txrace --seed 3
 *   txrace_run --app bodytrack --mode tsan --workers 8 --stats
 *   txrace_run --list
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "core/metrics_export.hh"
#include "core/report_format.hh"
#include "core/repro.hh"
#include "fault/fault.hh"
#include "ir/text.hh"
#include "support/log.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

[[noreturn]] void
usage()
{
    std::cout <<
        "usage: txrace_run --app NAME [options]\n"
        "       txrace_run --program FILE.txr [options]\n"
        "       txrace_run --pattern NAME [options]\n"
        "       txrace_run --list\n\n"
        "options:\n"
        "  --mode M       native | tsan | sampling | eraser |\n"
        "                 racetm |\n"
        "                 txrace | txrace-dyn | txrace-noopt\n"
        "                 (default: txrace)\n"
        "  --workers N    worker threads (default 4)\n"
        "  --scale N      work multiplier (default 1)\n"
        "  --seed N       schedule seed (default 1)\n"
        "  --seed-list A,B,...  run once per seed and report the\n"
        "                 union of distinct races\n"
        "  --irq-scale X  multiply the interrupt rate by X\n"
        "  --rate R       sampling rate for --mode sampling\n"
        "                 (default 0.5)\n"
        "  --trace N      record and print the first N events\n"
        "  --fault NAME   inject a named fault scenario\n"
        "  --fault-horizon N  scale episode times to N steps\n"
        "  --governor     enable the adaptive fallback governor\n"
        "  --monitor      production-monitor mode: enforce a hard\n"
        "                 overhead budget via per-site adaptive\n"
        "                 sampling (TxRace modes only; implies\n"
        "                 --governor)\n"
        "  --budget-pct N overhead budget as % of native virtual time\n"
        "                 per window (default 5)\n"
        "  --no-elide     disable the static access-elision passes\n"
        "                 (every tracked access is instrumented); the\n"
        "                 race union over seeds with elision holds the\n"
        "                 one without, plus at most init-idiom races\n"
        "  --no-calibrate skip the per-app TSan-cost calibration\n"
        "                 (matches campaign runs)\n"
        "  --stats [PREFIX]  dump counters (optionally only those\n"
        "                 whose name contains PREFIX, e.g. gov, fault)\n"
        "  --metrics-json FILE  write the txrace-metrics-v1 document\n"
        "  --trace-json FILE    write a Chrome trace-event timeline\n"
        "                 (load in chrome://tracing or Perfetto)\n"
        "  --profile-out FILE   write the txrace-profile-v1 site\n"
        "                 profile accumulated over this invocation\n"
        "  --profile-in FILE    seed the profile with a previous\n"
        "                 --profile-out document (cross-run merge)\n"
        "  --explain      render the forensics captures (flight\n"
        "                 windows, last-writer chain) after the report\n"
        "  --no-flightrec disable the per-thread flight recorder\n"
        "  --no-overhead  skip the native reference run\n"
        "\n"
        "FILE may be '-' for stdout on any of the JSON exports.\n";
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string seed_list;
    bool dump_stats = false;
    std::string stats_filter;
    bool with_overhead = true;
    size_t trace = 0;
    bool explain = false;
    bool flightrec = true;
    std::string metrics_json_path;
    std::string trace_json_path;
    std::string profile_out_path;
    std::string profile_in_path;

    // Run flags land in the identity; these are the output-only ones.
    const std::vector<std::string> args(argv, argv + argc);
    core::RunIdentity id = core::parseRunCommand(args, [&](size_t &i) {
        auto value = [&](const char *flag) {
            return core::flagValue(args, i, flag);
        };
        if (args[i] == "--list") {
            std::cout << "applications:\n";
            for (const std::string &name : workloads::appNames())
                std::cout << "  " << name << "\n";
            std::cout << "scenarios (not in the paper tables):\n";
            std::cout << "  apache-stream\n";
            std::cout << "patterns (--pattern):\n";
            for (const std::string &name : workloads::patternNames())
                std::cout << "  " << name << "\n";
            std::cout << "fault scenarios (--fault):\n";
            for (const std::string &name : fault::scenarioNames())
                std::cout << "  " << name << "\n";
            std::exit(0);
        } else if (args[i] == "--help") {
            usage();
        } else if (const char *vsl = value("--seed-list")) {
            seed_list = vsl;
        } else if (const char *v7 = value("--trace")) {
            trace = core::parseUnsignedFlag("--trace", v7);
        } else if (const char *vm = value("--metrics-json")) {
            metrics_json_path = vm;
        } else if (const char *vt = value("--trace-json")) {
            trace_json_path = vt;
        } else if (const char *vpo = value("--profile-out")) {
            profile_out_path = vpo;
        } else if (const char *vpi = value("--profile-in")) {
            profile_in_path = vpi;
        } else if (args[i] == "--explain") {
            explain = true;
        } else if (args[i] == "--no-flightrec") {
            flightrec = false;
        } else if (args[i] == "--stats") {
            dump_stats = true;
            // Optional value: a name filter (substring match, so
            // `--stats gov` catches txrace.gov.*).
            if (i + 1 < args.size() && args[i + 1][0] != '-')
                stats_filter = args[++i];
        } else if (args[i] == "--no-overhead") {
            with_overhead = false;
        } else {
            return false;
        }
        return true;
    });
    if (id.name.empty())
        usage();

    sim::MachineConfig machine;
    ir::Program prog = [&] {
        if (id.target == core::RunTarget::ProgramFile)
            return ir::loadProgramFile(id.name);
        if (id.target == core::RunTarget::Pattern) {
            workloads::Pattern pattern = workloads::makePattern(id.name);
            std::cout << pattern.name << ": " << pattern.description
                      << "\n\n";
            return std::move(pattern.program);
        }
        workloads::AppModel app = workloads::makeApp(
            id.name, {id.workers, id.scale, id.calibrated});
        machine = app.machine;  // calibrated costs + abort rates
        return std::move(app.program);
    }();
    std::vector<uint64_t> seeds = {id.seed};
    if (!seed_list.empty())
        seeds = core::parseSeedList(seed_list);

    // Cross-run profile: start from --profile-in (if any), fold in
    // every run of this invocation, write with --profile-out.
    telemetry::Profile profile;
    if (!profile_in_path.empty()) {
        std::ifstream in(profile_in_path);
        if (!in)
            fatal("cannot read %s", profile_in_path.c_str());
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string err;
        if (!telemetry::Profile::parse(buf.str(), profile, err))
            fatal("%s: %s", profile_in_path.c_str(), err.c_str());
    }

    detector::RaceSet union_races;
    core::RunConfig cfg;
    core::RunResult result;
    for (uint64_t s : seeds) {
        id.seed = s;
        cfg = core::runConfigFor(id, machine);
        cfg.machine.recordTimeline = trace > 0 || !trace_json_path.empty();
        cfg.machine.recordFlight = flightrec;
        if (seeds.size() > 1)
            std::cout << "=== seed " << s << " ===\n";
        result = core::runProgram(prog, cfg);
        core::printRaceReport(prog, result, std::cout, &id,
                              core::configDigest(cfg));
        if (explain)
            core::printForensics(prog, result, std::cout);
        profile.merge(core::buildRunProfile(id.name, result));

        if (!result.error.ok()) {
            std::cout << "abnormal end: "
                      << sim::runErrorKindName(result.error.kind)
                      << " after " << result.error.stepsExecuted
                      << " steps\n";
            for (const auto &info : result.error.threads)
                std::cout << "  thread " << info.tid << " at "
                          << info.where << "\n";
        }
        union_races.merge(result.races);
    }
    if (seeds.size() > 1)
        std::cout << "seed-list union: " << union_races.count()
                  << " distinct race(s) across " << seeds.size()
                  << " seed(s)\n";

    if (with_overhead && cfg.mode != core::RunMode::Native) {
        core::RunConfig ncfg = cfg;
        ncfg.mode = core::RunMode::Native;
        core::RunResult native = core::runProgram(prog, ncfg);
        std::cout << "runtime overhead vs native: ";
        std::cout.precision(2);
        std::cout << std::fixed << result.overheadVs(native) << "x\n";
    }
    std::cout << "transactions: " << result.stats.get("tx.committed")
              << " committed, "
              << result.stats.get("tx.abort.conflict") << " conflict / "
              << result.stats.get("tx.abort.capacity") << " capacity / "
              << result.stats.get("tx.abort.unknown")
              << " unknown aborts\n";
    if (id.monitor) {
        uint64_t over = 0;
        for (const core::BudgetWindow &w : result.budget.windows)
            if (w.hardOver)
                ++over;
        std::cout << "budget: " << result.budget.windows.size()
                  << " window(s), " << over << " over the "
                  << id.budgetPct << "% budget, "
                  << result.budget.siteCuts << " site cut(s), "
                  << result.budget.siteProbes << " probe(s)\n";
    }

    if (trace > 0) {
        std::cout << "\nevent timeline (first " << trace << "):\n";
        core::printTimeline(result.telemetry.flight, cfg.machine.faults,
                            std::cout, trace);
    }

    if (dump_stats) {
        std::cout << "\ncounters";
        if (!stats_filter.empty())
            std::cout << " (matching '" << stats_filter << "')";
        std::cout << ":\n";
        for (const auto &[name, v] : result.stats.all()) {
            if (!stats_filter.empty() &&
                name.find(stats_filter) == std::string::npos)
                continue;
            std::cout << "  " << name << " = " << v << "\n";
        }
    }

    if (!metrics_json_path.empty()) {
        std::ofstream file;
        std::ostream &out = core::openOut(metrics_json_path, file);
        // id.seed is the last --seed-list entry, the run it holds.
        core::writeMetricsJson(out, id, trace > 0, &prog, result);
        if (metrics_json_path != "-")
            std::cout << "metrics written to " << metrics_json_path
                      << "\n";
    }

    if (!trace_json_path.empty()) {
        std::ofstream file;
        std::ostream &out = core::openOut(trace_json_path, file);
        uint64_t n = core::writeChromeTrace(
            result.telemetry.flight, cfg.machine.faults,
            result.error.stepsExecuted, out);
        if (trace_json_path != "-")
            std::cout << "trace written to " << trace_json_path
                      << " (" << n
                      << " events; open in chrome://tracing or "
                         "Perfetto)\n";
    }

    if (!profile_out_path.empty()) {
        std::ofstream file;
        std::ostream &out = core::openOut(profile_out_path, file);
        profile.write(out);
        if (profile_out_path != "-")
            std::cout << "profile written to " << profile_out_path
                      << "\n";
    }
    return result.error.ok() ? 0 : 2;
}
