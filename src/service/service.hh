/**
 * @file
 * The continuous hunting service: resumable campaigns, spool/stdin
 * job ingestion, incremental findings, graceful shutdown.
 *
 * `txrace_hunt --serve --state-dir=D` promotes the one-shot campaign
 * into a long-running backend. The lifecycle:
 *
 *   ingest   — jobs come from the campaign strategy (default), from
 *              NDJSON batches on stdin, or from a spool directory
 *              processed in sorted-filename order;
 *   fold     — each round runs on the campaign::RoundRunner that
 *              runCampaign also uses (runner.hh); outcomes fold into
 *              one campaign::Aggregator on the thread that drains the
 *              runner's result queue (pool workers never touch it);
 *   emit     — txrace-progress-v1 heartbeats with service gauges
 *              plus one `"event":"finding"` delta per NEW finding;
 *   checkpoint — txrace-checkpoint-v1 written atomically to the
 *              state dir every N folded jobs and at every round
 *              barrier;
 *   resume   — `--resume` restores the checkpoint (identity,
 *              strategy state machine, pending plan, aggregate) and
 *              re-submits only unseen jobs; idempotent folding makes
 *              at-least-once delivery safe;
 *   merge    — the final findings store unions across hosts via
 *              FindingsStore::merge (commutative, `cmp`-testable).
 *
 * Every ingest path goes through one round body: persist the plan,
 * run its unseen jobs, close the barrier, checkpoint. What the
 * service adds over runCampaign is only restore, checkpoint, ingest,
 * stop handling and the finding-delta feed.
 *
 * Determinism: the final campaign report and findings store are a
 * pure function of the campaign identity (strategy mode) or of
 * identity + spool contents (stream mode). Kill points, `--jobs`,
 * and checkpoint cadence are invisible in the bytes.
 */

#ifndef TXRACE_SERVICE_SERVICE_HH
#define TXRACE_SERVICE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "campaign/campaign.hh"

namespace txrace::service {

struct ServiceOptions
{
    /** Campaign identity + execution knobs (jobs, cadence).
     *  On resume the identity subset is REPLACED by the checkpoint's;
     *  execution knobs always come from here. */
    campaign::CampaignConfig cfg;
    /** Directory holding checkpoint.json / findings.json /
     *  campaign.json. Created if missing. Required. */
    std::string stateDir;
    /** Restore state from stateDir instead of starting fresh. */
    bool resume = false;
    /** Checkpoint cadence in folded jobs (also checkpoints at every
     *  round barrier and on shutdown). 0 = barriers/shutdown only. */
    uint64_t checkpointEvery = 16;
    /** Spool directory of NDJSON batch files (stream mode). */
    std::string spoolDir;
    /** NDJSON batches on a stream, blank-line separated (stream
     *  mode; typically stdin). */
    std::istream *jobStream = nullptr;
    /** Keep polling the spool for new files after draining it;
     *  otherwise exit once every known job is folded. */
    bool follow = false;
    /** Heartbeats + finding deltas (txrace-progress-v1 NDJSON). */
    std::ostream *progressJson = nullptr;
    /** Human chatter. */
    std::ostream *chatter = nullptr;
    /** Set asynchronously (SIGTERM handler) to request a graceful
     *  stop: finish in-flight jobs, checkpoint, exit. */
    const std::atomic<bool> *stopFlag = nullptr;
};

struct ServiceResult
{
    /** False when stopped early (stopFlag); a checkpoint was
     *  written and `--resume` will continue the campaign. */
    bool completed = false;
    uint64_t jobsFolded = 0;
    uint64_t duplicatesSkipped = 0;
    uint64_t checkpoints = 0;
    /** The campaign that ran: the checkpoint's identity on resume,
     *  execution knobs from the options. Valid when completed. */
    campaign::CampaignConfig cfg;
    /** The report (deterministic but for `timing`, which covers the
     *  jobs this process ran); only valid when completed. */
    campaign::CampaignResult report;
};

/**
 * Run the service until the campaign completes, the stream drains
 * (stream mode, unless follow), or the stop flag is raised. fatal()s
 * on unusable options (missing state dir path, unknown strategy);
 * returns normally on graceful stop.
 */
ServiceResult runService(const ServiceOptions &opt);

} // namespace txrace::service

#endif // TXRACE_SERVICE_SERVICE_HH
