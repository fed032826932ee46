/**
 * @file
 * Command-line front end: run any bundled workload under any
 * detection mode and print statistics plus the full race report.
 *
 *   txrace_run --app vips --mode txrace --seed 3
 *   txrace_run --app bodytrack --mode tsan --workers 8 --stats
 *   txrace_run --list
 */

#include <cstring>
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

/**
 * Resolve an output path for the JSON exporters: "-" means stdout,
 * anything else opens @p file for writing (fatal on failure).
 */
std::ostream &
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return std::cout;
    file.open(path);
    if (!file)
        fatal("cannot write %s", path.c_str());
    return file;
}

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
    std::string app_name;
    std::string program_path;
    std::string pattern_name;
    std::string mode_name = "txrace";
    workloads::WorkloadParams params;
    uint64_t seed = 1;
    std::string seed_list;
    double irq_scale = 1.0;
    double rate = 0.5;
    bool dump_stats = false;
    std::string stats_filter;
    bool with_overhead = true;
    size_t trace = 0;
    std::string fault_name;
    uint64_t fault_horizon = 200'000;
    bool governor = false;
    bool monitor = false;
    double budget_pct = 5.0;
    bool budget_pct_given = false;
    bool elide = true;
    bool explain = false;
    bool flightrec = true;
    std::string metrics_json_path;
    std::string trace_json_path;
    std::string profile_out_path;
    std::string profile_in_path;

    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            size_t flen = std::strlen(flag);
            // Both `--flag value` and `--flag=value` spellings work.
            if (std::strncmp(argv[i], flag, flen) == 0 &&
                argv[i][flen] == '=')
                return argv[i] + flen + 1;
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--list") == 0) {
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
            return 0;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            usage();
        } else if (const char *v = value("--app")) {
            app_name = v;
        } else if (const char *vp = value("--program")) {
            program_path = vp;
        } else if (const char *vn = value("--pattern")) {
            pattern_name = vn;
        } else if (const char *v2 = value("--mode")) {
            mode_name = v2;
        } else if (const char *v3 = value("--workers")) {
            params.nWorkers = workloads::parseWorkersFlag(v3);
        } else if (const char *v4 = value("--scale")) {
            params.scale = core::parseUnsignedFlag("--scale", v4, 1);
        } else if (const char *v5 = value("--seed")) {
            seed = core::parseUnsignedFlag("--seed", v5);
        } else if (const char *vsl = value("--seed-list")) {
            seed_list = vsl;
        } else if (const char *vis = value("--irq-scale")) {
            irq_scale = core::parseDoubleFlag("--irq-scale", vis);
            if (irq_scale < 0.0)
                fatal("--irq-scale must not be negative");
        } else if (const char *v6 = value("--rate")) {
            rate = core::parseDoubleFlag("--rate", v6);
        } else if (const char *v7 = value("--trace")) {
            trace = core::parseUnsignedFlag("--trace", v7);
        } else if (const char *v8 = value("--fault")) {
            fault_name = v8;
        } else if (const char *v9 = value("--fault-horizon")) {
            fault_horizon = core::parseUnsignedFlag("--fault-horizon", v9);
        } else if (std::strcmp(argv[i], "--governor") == 0) {
            governor = true;
        } else if (std::strcmp(argv[i], "--monitor") == 0) {
            monitor = true;
        } else if (const char *vb = value("--budget-pct")) {
            budget_pct = core::parseDoubleFlag("--budget-pct", vb);
            budget_pct_given = true;
            if (budget_pct <= 0.0)
                fatal("--budget-pct must be positive");
        } else if (std::strcmp(argv[i], "--no-elide") == 0) {
            elide = false;
        } else if (std::strcmp(argv[i], "--no-calibrate") == 0) {
            params.calibrate = false;
        } else if (const char *vm = value("--metrics-json")) {
            metrics_json_path = vm;
        } else if (const char *vt = value("--trace-json")) {
            trace_json_path = vt;
        } else if (const char *vpo = value("--profile-out")) {
            profile_out_path = vpo;
        } else if (const char *vpi = value("--profile-in")) {
            profile_in_path = vpi;
        } else if (std::strcmp(argv[i], "--explain") == 0) {
            explain = true;
        } else if (std::strcmp(argv[i], "--no-flightrec") == 0) {
            flightrec = false;
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            dump_stats = true;
            // Optional value: a name filter (substring match, so
            // `--stats gov` catches txrace.gov.*).
            if (i + 1 < argc && argv[i + 1][0] != '-')
                stats_filter = argv[++i];
        } else if (std::strcmp(argv[i], "--no-overhead") == 0) {
            with_overhead = false;
        } else {
            fatal("unknown option '%s' (try --help)", argv[i]);
        }
    }
    if (app_name.empty() && program_path.empty() &&
        pattern_name.empty())
        usage();
    if (!app_name.empty() + !program_path.empty() +
            !pattern_name.empty() >
        1)
        fatal("--app, --program and --pattern are mutually exclusive");
    if (budget_pct_given && !monitor)
        fatal("--budget-pct requires --monitor");

    core::RunConfig cfg;
    cfg.mode = core::parseModeFlag(mode_name);
    cfg.sampleRate = rate;
    ir::Program prog = [&] {
        if (!program_path.empty())
            return ir::loadProgramFile(program_path);
        if (!pattern_name.empty()) {
            workloads::Pattern pattern =
                workloads::makePattern(pattern_name);
            std::cout << pattern.name << ": " << pattern.description
                      << "\n\n";
            return std::move(pattern.program);
        }
        workloads::AppModel app = workloads::makeApp(app_name, params);
        cfg.machine = app.machine;  // calibrated costs + abort rates
        return std::move(app.program);
    }();
    cfg.machine.seed = seed;
    cfg.machine.interruptPerStep *= irq_scale;
    cfg.machine.recordTimeline = trace > 0 || !trace_json_path.empty();
    cfg.machine.recordFlight = flightrec;
    if (!fault_name.empty())
        cfg.machine.faults =
            fault::makeScenario(fault_name, fault_horizon);
    cfg.governor.enabled = governor;
    if (monitor) {
        if (cfg.mode != core::RunMode::TxRaceNoOpt &&
            cfg.mode != core::RunMode::TxRaceDynLoopcut &&
            cfg.mode != core::RunMode::TxRaceProfLoopcut)
            fatal("--monitor requires a txrace mode");
        // Monitor mode composes the budget controller on top of the
        // ladder: the governor rides out storms, the budget caps what
        // the ride may cost.
        cfg.governor.enabled = true;
        cfg.budget.enabled = true;
        cfg.budget.budgetPct = budget_pct;
    }
    // Elision is static only; the differential soundness test
    // compares against exactly this configuration.
    if (!elide)
        cfg.passes.elide.enabled = false;

    core::RunIdentity identity;
    identity.target = !program_path.empty()
                          ? core::RunTarget::ProgramFile
                      : !pattern_name.empty() ? core::RunTarget::Pattern
                                              : core::RunTarget::App;
    identity.name = !program_path.empty()    ? program_path
                    : !pattern_name.empty()  ? pattern_name
                                             : app_name;
    identity.mode = core::cliModeName(cfg.mode);
    identity.workers = params.nWorkers;
    identity.scale = params.scale;
    identity.fault = fault_name;
    identity.faultHorizon = fault_name.empty() ? 0 : fault_horizon;
    identity.governor = governor;
    identity.monitor = monitor;
    identity.budgetPct = budget_pct;
    identity.elide = elide;
    identity.irqScale = irq_scale;
    identity.calibrated = params.calibrate;

    std::vector<uint64_t> seeds = {seed};
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
    core::RunResult result;
    for (uint64_t s : seeds) {
        cfg.machine.seed = s;
        identity.seed = s;
        if (seeds.size() > 1)
            std::cout << "=== seed " << s << " ===\n";
        result = core::runProgram(prog, cfg);
        core::printRaceReport(prog, result, std::cout, identity,
                              core::configDigest(cfg));
        if (explain)
            core::printForensics(prog, result, std::cout);
        profile.merge(core::buildRunProfile(identity.name, result));

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
    if (monitor) {
        uint64_t over = 0;
        for (const core::BudgetWindow &w : result.budget.windows)
            if (w.hardOver)
                ++over;
        std::cout << "budget: " << result.budget.windows.size()
                  << " window(s), " << over << " over the "
                  << budget_pct << "% budget, "
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
        std::ostream &out = openOut(metrics_json_path, file);
        core::MetricsMeta meta;
        meta.app = !app_name.empty() ? app_name
                   : !pattern_name.empty() ? pattern_name
                                           : program_path;
        meta.mode = mode_name;
        meta.seed = cfg.machine.seed; // the last --seed-list entry
        meta.workers = params.nWorkers;
        meta.scale = params.scale;
        meta.traceText = trace > 0;
        core::writeMetricsJson(out, meta, &prog, result);
        if (metrics_json_path != "-")
            std::cout << "metrics written to " << metrics_json_path
                      << "\n";
    }

    if (!trace_json_path.empty()) {
        std::ofstream file;
        std::ostream &out = openOut(trace_json_path, file);
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
        std::ostream &out = openOut(profile_out_path, file);
        profile.write(out);
        if (profile_out_path != "-")
            std::cout << "profile written to " << profile_out_path
                      << "\n";
    }
    return result.error.ok() ? 0 : 2;
}
