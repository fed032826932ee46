#include "campaign/execute.hh"

#include <chrono>

#include "core/driver.hh"
#include "core/metrics_export.hh"
#include "core/repro.hh"

namespace txrace::campaign {

const workloads::AppModel &
WorkerCache::get(const core::RunIdentity &run)
{
    Key key{run.name, run.workers, run.scale, run.calibrated};
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    return cache_
        .emplace(key, workloads::makeApp(run.name, {run.workers, run.scale,
                                                    run.calibrated}))
        .first->second;
}

JobOutcome
executeJob(const JobSpec &spec, WorkerCache &cache,
           core::SlowPathKind slowpath)
{
    const workloads::AppModel &app = cache.get(spec.run);
    core::RunConfig rc = core::runConfigFor(spec.run, app.machine);
    // No flag selects the slow path; only tests change it.
    rc.slowpath = slowpath;

    JobOutcome outcome;
    outcome.spec = spec;
    outcome.configDigest = core::configDigest(rc);
    outcome.repro = core::reproCommand(spec.run);

    auto t0 = std::chrono::steady_clock::now();
    core::RunResult result = core::runProgram(app.program, rc);
    auto t1 = std::chrono::steady_clock::now();
    outcome.wallMicros = uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());

    outcome.ok = result.error.ok();
    outcome.error = sim::runErrorKindName(result.error.kind);
    outcome.totalCost = result.totalCost;
    outcome.txCommitted = result.stats.get("tx.committed");
    outcome.abortConflict = result.stats.get("tx.abort.conflict");
    outcome.abortCapacity = result.stats.get("tx.abort.capacity");
    outcome.abortUnknown = result.stats.get("tx.abort.unknown");

    // Race ids reference instructions of the source program (passes
    // insert but never renumber), so fingerprinting against
    // app.program is exact. Scope by app name: identical tags exist
    // in different apps.
    for (const auto &[sig, race] :
         core::fingerprintedRaces(app.program, result.races, spec.run.name)) {
        FoundRace found;
        found.sig = sig;
        found.kind = race.kind;
        found.hits = race.hits;
        found.addr = race.addr;
        outcome.races.push_back(std::move(found));
    }
    outcome.profile = core::buildRunProfile(spec.run.name, result);
    return outcome;
}

} // namespace txrace::campaign
