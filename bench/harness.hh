/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
 */

#ifndef TXRACE_BENCH_HARNESS_HH
#define TXRACE_BENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "workloads/workloads.hh"

namespace txrace::bench {

/** Command-line options common to all harnesses. */
struct Options
{
    uint32_t workers = 4;
    uint64_t scale = 1;
    uint64_t seed = 1;
    /** Trials to average where a harness supports it (paper: 5). */
    uint32_t runs = 1;
    bool csv = false;
    /** Restrict to one application (empty = all). */
    std::string only;
    /** Write per-benchmark machine-readable rows to this file. */
    std::string jsonPath;
};

/** Parse --workers/--scale/--seed/--runs/--csv/--app/--json from
 *  argv. A malformed or out-of-range number (--workers < 2, --scale or
 *  --runs 0) or an unknown --app name is a fatal naming its flag. */
Options parseOptions(int argc, char **argv);

/** Applications to run given the options (all, or the one chosen). */
std::vector<std::string> selectedApps(const Options &opt);

/** Build a RunConfig for @p app at @p mode with the harness seed. */
core::RunConfig configFor(const workloads::AppModel &app,
                          core::RunMode mode, const Options &opt);

/** Run @p app under @p mode. When --json was given, one result row
 *  (app, mode, seed, steps, key counters, wall time) is recorded and
 *  flushed to the file at process exit. */
core::RunResult runApp(const workloads::AppModel &app,
                       core::RunMode mode, const Options &opt);

} // namespace txrace::bench

#endif // TXRACE_BENCH_HARNESS_HH
