/**
 * @file
 * Stable machine-readable exports of a run's telemetry: the
 * txrace-metrics-v1 JSON document (counters, histograms, per-mode
 * phase breakdown, conflict heatmap) and the Chrome trace-event
 * timeline (`txrace_run --metrics-json` / `--trace-json`).
 */

#ifndef TXRACE_CORE_METRICS_EXPORT_HH
#define TXRACE_CORE_METRICS_EXPORT_HH

#include <ostream>
#include <string>

#include "core/driver.hh"
#include "core/repro.hh"
#include "ir/program.hh"
#include "telemetry/profile.hh"

namespace txrace::core {

/**
 * Write the txrace-metrics-v1 JSON document for @p result to @p os,
 * headed by the run's @p identity; @p traceText records whether the
 * `--trace` text timeline was requested (events.enabled).
 * @p prog (nullable) names conflict sites by their IR instruction and
 * enclosing function; without it sites carry only instruction ids.
 */
void writeMetricsJson(std::ostream &os, const RunIdentity &identity,
                      bool traceText, const ir::Program *prog,
                      const RunResult &result);

/**
 * Fold one run's observability state into a single-app
 * telemetry::Profile keyed by @p app: per-site abort and slow-path
 * counters from the telemetry bundle, transaction totals and winner
 * replays from the merged stats, and monitor sampling
 * state from the budget report. Callers accumulate runs (and fleets)
 * with Profile::merge and serialize with Profile::write.
 */
telemetry::Profile buildRunProfile(const std::string &app,
                                   const RunResult &result);

} // namespace txrace::core

#endif // TXRACE_CORE_METRICS_EXPORT_HH
