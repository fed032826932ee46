#include "harness.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
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
    std::string app;
    std::string mode;
    uint64_t seed = 0;
    uint32_t workers = 0;
    uint64_t scale = 0;
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
        w.field("app", row.app);
        w.field("mode", row.mode);
        w.field("seed", row.seed);
        w.field("workers", static_cast<uint64_t>(row.workers));
        w.field("scale", row.scale);
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
recordRow(const workloads::AppModel &app, core::RunMode mode,
          const Options &opt, const core::RunResult &result,
          double wall_ms)
{
    if (g_jsonPath.empty())
        return;
    ResultRow row;
    row.app = app.name;
    row.mode = core::runModeName(mode);
    row.seed = opt.seed;
    row.workers = opt.workers;
    row.scale = opt.scale;
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

} // namespace

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (const char *v = want("--workers")) {
            opt.workers = core::parseWorkersFlag(v);
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
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opt.csv = true;
        } else {
            fatal("unknown option '%s' (use --workers N --scale N "
                  "--seed N --runs N --app NAME --csv --json FILE)",
                  argv[i]);
        }
    }
    if (!opt.only.empty()) {
        // The counts are already checked, so only the name can fail.
        workloads::WorkloadParams params;
        params.nWorkers = opt.workers;
        params.scale = opt.scale;
        if (const std::string error =
                workloads::appParamsError(opt.only, params);
            !error.empty())
            fatal("--app: %s", error.c_str());
    }
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

core::RunConfig
configFor(const workloads::AppModel &app, core::RunMode mode,
          const Options &opt)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine = app.machine;
    cfg.machine.seed = opt.seed;
    return cfg;
}

core::RunResult
runApp(const workloads::AppModel &app, core::RunMode mode,
       const Options &opt)
{
    auto t0 = std::chrono::steady_clock::now();
    core::RunResult result =
        core::runProgram(app.program, configFor(app, mode, opt));
    auto t1 = std::chrono::steady_clock::now();
    double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    recordRow(app, mode, opt, result, wall_ms);
    return result;
}

} // namespace txrace::bench
