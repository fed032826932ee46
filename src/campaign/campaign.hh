/**
 * @file
 * The campaign engine: many deterministic Machine runs, one
 * deduplicated race-hunting result.
 *
 * TxRace's pitch is overhead low enough to run race detection
 * broadly and continuously; a single run only ever sees one schedule
 * (vips finds ~79 of its 112 races per run, §8.3). A campaign
 * executes a matrix of (workload x seed x config-variant) jobs on a
 * work-stealing pool, funnels outcomes through a bounded queue into
 * one aggregator, dedups findings by static-instruction-pair
 * fingerprint, attaches exact-reproduction metadata to the first
 * sighting of each race, and scores the union against the workload
 * registry's ground-truth annotations.
 *
 * Determinism contract: the aggregate report is a pure function of
 * CampaignConfig. Workers race freely, but every decision — strategy
 * reseeding, first-seen attribution, report order — keys on job ids
 * and fingerprints, never on completion order. `--jobs 1` and
 * `--jobs 8` produce byte-identical JSON; only CampaignTiming (kept
 * out of the report) differs.
 */

#ifndef TXRACE_CAMPAIGN_CAMPAIGN_HH
#define TXRACE_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/job.hh"
#include "support/stats.hh"
#include "telemetry/profile.hh"

namespace txrace::campaign {

/** Everything that defines one campaign. */
struct CampaignConfig
{
    /** Workloads to hunt on (registry names; empty = fatal). */
    std::vector<std::string> apps;
    /** Base seed budget per app (strategies decide how to spend a
     *  total of apps * seedsPerApp run slots; perturb multiplies by
     *  its variant count). */
    uint64_t seedsPerApp = 4;
    /** Master seed: every job seed derives from it deterministically. */
    uint64_t masterSeed = 1;
    /** Exploration strategy: sweep | abort-guided | perturb. */
    std::string strategy = "sweep";
    /** Detection mode for every job. Dyn loop-cut by default: same
     *  detection power, no profiling pre-run per job. */
    core::RunMode mode = core::RunMode::TxRaceDynLoopcut;
    /** Conflict-abort repair for every job (RunConfig::slowpath).
     *  Part of each job's config digest and of the campaign identity;
     *  only tests leave the default. */
    core::SlowPathKind slowpath = core::SlowPathKind::Replay;
    /** Simulated worker threads per run. */
    uint32_t workers = 4;
    uint64_t scale = 1;
    /** Pool threads (--jobs). Does not affect the report. */
    uint32_t jobs = 4;
    /** Run the per-app TSan-overhead calibration (slower; race
     *  hunting does not need calibrated check costs). */
    bool calibrate = false;
    /** Aggregator queue bound (backpressure on the fleet). */
    size_t queueCapacity = 64;
    /** Progress-stream cadence: one heartbeat record every N
     *  completed jobs. Job-count based, never wall clock, so the
     *  record *count* is a pure function of the config; the record
     *  contents reflect live completion order (the stream is an
     *  operational side channel, not part of the report). */
    uint64_t progressEvery = 8;
};

/** One deduplicated race across the whole campaign. */
struct Finding
{
    core::RaceSig sig;
    /** App the race belongs to (fingerprints are app-scoped). */
    std::string app;
    std::string kind;  ///< access-pair kind at first sighting
    /** Distinct runs that reported this race. */
    uint64_t runsSeen = 0;
    /** Dynamic occurrences summed over all runs. */
    uint64_t totalHits = 0;
    /** Ground-truth verdict: does the label match an annotation? */
    bool inGroundTruth = false;
    /** First sighting = lowest job id (NOT completion order). */
    uint64_t firstJob = 0;
    uint64_t firstSeed = 0;
    std::string firstVariant;
    uint64_t firstConfigDigest = 0;
    /** Exact txrace_run command reproducing the first sighting. */
    std::string repro;
};

/** Precision/recall of the campaign union for one app. */
struct AppScore
{
    std::string app;
    uint64_t expected = 0;  ///< ground-truth annotations
    uint64_t found = 0;     ///< unique findings on this app
    uint64_t matched = 0;   ///< distinct annotations found
    uint64_t falsePositives = 0;
    double precision = 1.0;
    double recall = 1.0;
};

/** Contribution of one config variant (per-strategy yield). */
struct VariantYield
{
    std::string variant;
    uint64_t runs = 0;
    uint64_t rawReports = 0;
    /** Findings whose first sighting used this variant. */
    uint64_t firstFound = 0;
};

/** One job's execution span, for the Chrome-trace timeline. Timing
 *  and scheduling facts only — excluded from the deterministic
 *  report. */
struct JobSpan
{
    uint64_t job = 0;
    uint32_t round = 0;
    std::string app;
    std::string variant;
    uint64_t seed = 0;
    uint32_t worker = 0;
    uint64_t startMicros = 0;
    uint64_t wallMicros = 0;
    uint64_t rawReports = 0;
};

/** Wall-clock facts. Excluded from the deterministic report. */
struct CampaignTiming
{
    double wallSeconds = 0.0;
    double runsPerSec = 0.0;
    uint32_t jobs = 0;
    uint64_t steals = 0;
    /** Per-job spans in id order (`txrace_hunt --trace-json`). */
    std::vector<JobSpan> spans;
};

/** The aggregate. Everything except `timing` is deterministic. */
struct CampaignResult
{
    std::vector<Finding> findings;  ///< sorted by fingerprint
    std::vector<AppScore> scores;   ///< config app order
    std::vector<VariantYield> variants;
    uint64_t runs = 0;
    uint64_t rounds = 0;
    uint64_t errors = 0;
    uint64_t rawReports = 0;
    uint64_t txCommitted = 0;
    uint64_t abortConflict = 0;
    uint64_t abortCapacity = 0;
    uint64_t abortUnknown = 0;
    /** rawReports / findings.size() (1.0 when nothing found). */
    double dedupRatio = 1.0;
    /** Fleet union of every job's site profile (txrace-profile-v1).
     *  Deterministic: Profile::merge is commutative and associative,
     *  so completion order and --jobs cannot change it. */
    telemetry::Profile profile;
    /** campaign.* counters (deterministic subset only). */
    StatSet stats;
    CampaignTiming timing;
};

/**
 * Run the campaign. Blocks until complete; spawns cfg.jobs worker
 * threads internally. @p progress (optional) receives one line per
 * round — human chatter, not part of the report. @p progressJson
 * (optional) receives the NDJSON heartbeat stream: one compact
 * txrace-progress-v1 record per cfg.progressEvery completed jobs
 * plus a final `"event":"end"` record.
 */
CampaignResult runCampaign(const CampaignConfig &cfg,
                           std::ostream *progress = nullptr,
                           std::ostream *progressJson = nullptr);

/** Write the versioned deterministic report (txrace-campaign-v1). */
void writeCampaignJson(std::ostream &os, const CampaignConfig &cfg,
                       const CampaignResult &result);

/**
 * Write the campaign's execution timeline as a Chrome trace-event
 * document: one complete ("X") span per job, pool workers as the
 * trace's thread lanes. Load in chrome://tracing or Perfetto.
 */
void writeCampaignTrace(std::ostream &os,
                        const CampaignResult &result);

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_CAMPAIGN_HH
