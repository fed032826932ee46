#include "harness.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "core/repro.hh"
#include "core/runmode.hh"
#include "support/log.hh"
#include "telemetry/json.hh"

namespace txrace::bench {

namespace {

/** One machine-readable result row (--json output). */
struct ResultRow
{
    core::RunIdentity run;
    uint64_t steps = 0;
    uint64_t totalCost = 0;
    uint64_t races = 0;
    double wallMs = 0.0;
    /** Key counters (name -> value), in StatSet name order. */
    std::vector<std::pair<std::string, uint64_t>> counters;
};

/** Rows accumulated across runApp calls, flushed at exit. */
std::vector<ResultRow> g_rows;
std::string g_jsonPath;

void
flushRows()
{
    if (g_jsonPath.empty())
        return;
    std::ofstream out(g_jsonPath);
    if (!out) {
        warn("bench: cannot write %s", g_jsonPath.c_str());
        return;
    }
    telemetry::JsonWriter w(out);
    w.beginArray();
    for (const ResultRow &row : g_rows) {
        w.beginObject();
        w.field("app", row.run.name);
        w.field("mode", core::runModeName(row.run.mode));
        w.field("seed", row.run.seed);
        w.field("workers", static_cast<uint64_t>(row.run.workers));
        w.field("scale", row.run.scale);
        w.field("steps", row.steps);
        w.field("total_cost", row.totalCost);
        w.field("races", row.races);
        w.field("wall_ms", row.wallMs);
        w.key("counters");
        w.beginObject();
        for (const auto &[name, value] : row.counters)
            w.field(name, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    out << "\n";
}

/** The counters worth a machine-readable row (full dumps come from
 *  txrace_run --metrics-json). */
constexpr const char *kKeyCounters[] = {
    "tx.begins",
    "tx.committed",
    "tx.abort.conflict",
    "tx.abort.capacity",
    "tx.abort.unknown",
    "txrace.slow_regions",
    "txrace.loop_cuts",
    "machine.steps",
    "machine.rollbacks",
};

void
recordRow(const core::RunIdentity &run, const core::RunResult &result,
          double wall_ms)
{
    if (g_jsonPath.empty())
        return;
    ResultRow row;
    row.run = run;
    row.steps = result.error.stepsExecuted;
    row.totalCost = result.totalCost;
    row.races = result.races.count();
    row.wallMs = wall_ms;
    for (const char *name : kKeyCounters) {
        uint64_t v = result.stats.get(name);
        if (v)
            row.counters.emplace_back(name, v);
    }
    g_rows.push_back(std::move(row));
}

/** The run of @p app at @p mode that the options describe; every
 *  access is checked, as RunConfig's default sample rate has it. */
core::RunIdentity
identityFor(const std::string &app, core::RunMode mode, const Options &opt)
{
    core::RunIdentity id;
    id.name = app;
    id.mode = mode;
    id.workers = opt.workers;
    id.scale = opt.scale;
    id.seed = opt.seed;
    id.sampleRate = 1.0;
    return id;
}

} // namespace

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    const std::vector<std::string> args(argv, argv + argc);
    for (size_t i = 1; i < args.size(); ++i) {
        auto want = [&](const char *flag) {
            return core::flagValue(args, i, flag);
        };
        if (const char *v = want("--workers")) {
            opt.workers = static_cast<uint32_t>(
                core::parseUnsignedFlag("--workers", v, 0, UINT32_MAX));
        } else if (const char *v2 = want("--scale")) {
            opt.scale = core::parseUnsignedFlag("--scale", v2, 1);
        } else if (const char *v3 = want("--seed")) {
            opt.seed = core::parseUnsignedFlag("--seed", v3);
        } else if (const char *vr = want("--runs")) {
            opt.runs = static_cast<uint32_t>(
                core::parseUnsignedFlag("--runs", vr, 1, UINT32_MAX));
        } else if (const char *v4 = want("--app")) {
            opt.only = v4;
        } else if (const char *vj = want("--json")) {
            opt.jsonPath = vj;
        } else if (args[i] == "--csv") {
            opt.csv = true;
        } else {
            fatal("unknown option '%s' (use --workers N --scale N "
                  "--seed N --runs N --app NAME --csv --json FILE)",
                  args[i].c_str());
        }
    }
    for (const std::string &app : selectedApps(opt))
        if (const core::IdentityError e = core::identityError(
                identityFor(app, core::RunMode::Native, opt)))
            fatal("%s", e.flagMessage().c_str());
    if (!opt.jsonPath.empty() && g_jsonPath.empty()) {
        g_jsonPath = opt.jsonPath;
        std::atexit(flushRows);
    }
    return opt;
}

std::vector<std::string>
selectedApps(const Options &opt)
{
    if (opt.only.empty())
        return workloads::appNames();
    return {opt.only};
}

workloads::AppModel
appModel(const std::string &app, const Options &opt)
{
    return workloads::makeApp(app, {opt.workers, opt.scale, true});
}

core::RunConfig
configFor(const workloads::AppModel &app, core::RunMode mode,
          const Options &opt)
{
    return core::runConfigFor(identityFor(app.name, mode, opt),
                              app.machine);
}

core::RunResult
runApp(const workloads::AppModel &app, core::RunMode mode,
       const Options &opt)
{
    const core::RunIdentity run = identityFor(app.name, mode, opt);
    auto t0 = std::chrono::steady_clock::now();
    core::RunResult result =
        core::runProgram(app.program, core::runConfigFor(run, app.machine));
    auto t1 = std::chrono::steady_clock::now();
    double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    recordRow(run, result, wall_ms);
    return result;
}

} // namespace txrace::bench
