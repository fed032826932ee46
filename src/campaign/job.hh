/**
 * @file
 * Units of campaign work: one JobSpec describes one deterministic
 * Machine run out of the (workload x seed x config-variant) matrix,
 * and one JobOutcome is everything the aggregator keeps of it.
 *
 * The engine is free to execute jobs in any order on any worker —
 * outcomes carry the job id, and every consumer (strategies, the
 * aggregator) re-sorts by id before acting, which is what makes the
 * campaign a pure function of its config regardless of --jobs.
 */

#ifndef TXRACE_CAMPAIGN_JOB_HH
#define TXRACE_CAMPAIGN_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/fingerprint.hh"
#include "core/repro.hh"
#include "detector/report.hh"
#include "ir/addr.hh"
#include "telemetry/profile.hh"

namespace txrace::campaign {

/** One run of the matrix. Plain data; fully determines the run. */
struct JobSpec
{
    /** Dense campaign-wide id; ties every ordering decision. */
    uint64_t id = 0;
    /** Exploration round that emitted the job (0 = base matrix). */
    uint32_t round = 0;
    /** Config-variant handle (perturbation sweeps). "base" = the
     *  registry's machine config untouched. */
    std::string variant = "base";
    /** The run: the campaign's base identity (baseIdentity()) with
     *  the job's app, seed and variant knobs (irqScale, workers,
     *  governor) set. */
    core::RunIdentity run;
};

/** One race as found by one job, with its stable identity. */
struct FoundRace
{
    core::RaceSig sig;
    detector::RaceKind kind = detector::RaceKind::WriteWrite;
    uint64_t hits = 0;
    ir::Addr addr = 0;
};

/** What one finished job contributes to the aggregate. */
struct JobOutcome
{
    JobSpec spec;
    bool ok = true;
    /** RunError kind name on abnormal end ("none" otherwise). */
    std::string error = "none";
    uint64_t totalCost = 0;
    uint64_t txCommitted = 0;
    uint64_t abortConflict = 0;
    uint64_t abortCapacity = 0;
    uint64_t abortUnknown = 0;
    /** Races sorted by fingerprint (scope = app name). */
    std::vector<FoundRace> races;
    /** Digest of the exact RunConfig executed. */
    uint64_t configDigest = 0;
    /** Exact txrace_run command replaying this job. */
    std::string repro;
    /** This run's site profile (txrace-profile-v1 contribution).
     *  Merge is commutative, so the fleet union is deterministic
     *  no matter which worker ran what. */
    telemetry::Profile profile;
    /** Pool worker that executed the job. Timing/attribution only —
     *  never part of the deterministic report. */
    uint32_t worker = 0;
    /** Start offset from campaign begin, microseconds. Timing only. */
    uint64_t startMicros = 0;
    /** Wall-clock cost of the run in microseconds. Timing only —
     *  never part of the deterministic report. */
    uint64_t wallMicros = 0;
};

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_JOB_HH
