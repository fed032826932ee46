/**
 * @file
 * Job execution: one JobSpec in, one JobOutcome out.
 *
 * Only the round runner (runner.hh) calls it, so the one-shot
 * campaign and the hunting service execute jobs identically, which
 * is what makes a resumed service campaign reproduce the
 * uninterrupted run: an outcome is a pure function of its spec (plus
 * the calibrate / slow-path knobs that are part of the campaign
 * identity).
 */

#ifndef TXRACE_CAMPAIGN_EXECUTE_HH
#define TXRACE_CAMPAIGN_EXECUTE_HH

#include <map>
#include <string>
#include <tuple>

#include "campaign/job.hh"
#include "core/runmode.hh"
#include "workloads/workloads.hh"

namespace txrace::campaign {

/**
 * Per-worker workload cache. Building an AppModel (program synthesis
 * + optional calibration) dwarfs many short runs, and the same app
 * recurs across seeds; each worker keeps its own cache so no lock
 * sits between the fleet and the registry.
 */
class WorkerCache
{
  public:
    const workloads::AppModel &get(const std::string &app,
                                   uint32_t workers, uint64_t scale,
                                   bool calibrate);

  private:
    using Key = std::tuple<std::string, uint32_t, uint64_t>;
    std::map<Key, workloads::AppModel> cache_;
};

/**
 * Execute @p spec. Deterministic: the returned outcome (minus the
 * wall-clock fields) depends only on the spec and the two knobs.
 */
JobOutcome executeJob(const JobSpec &spec, WorkerCache &cache,
                      bool calibrate, core::SlowPathKind slowpath);

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_EXECUTE_HH
