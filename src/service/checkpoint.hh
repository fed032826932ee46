/**
 * @file
 * Service checkpoints: txrace-checkpoint-v1.
 *
 * A checkpoint is everything the service needs to continue a
 * campaign after being killed: the campaign identity, the job-id
 * allocator, the strategy's state machine, the CURRENT round's full
 * plan, compact per-job outcome summaries (what adaptive strategies
 * read from history), spool-ingest bookkeeping, and the complete
 * aggregate. Resume re-submits plan jobs whose ids the aggregate has
 * not seen; re-running a job whose outcome WAS checkpointed is
 * harmless because Aggregator::add is idempotent — at-least-once
 * delivery, exactly-once folding.
 *
 * Checkpoints are written atomically (tmp file + rename), so a kill
 * mid-write leaves the previous checkpoint intact, never a torn
 * file.
 */

#ifndef TXRACE_SERVICE_CHECKPOINT_HH
#define TXRACE_SERVICE_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/job.hh"

namespace txrace::service {

/**
 * What a checkpoint keeps of one folded outcome: the spec plus the
 * outcome facts any strategy reads from history (abort-guided
 * reseeding weighs conflict aborts). Everything a strategy is
 * ALLOWED to see survives the round trip; everything else (races,
 * profiles) lives aggregated in the store.
 */
struct OutcomeSummary
{
    campaign::JobSpec spec;
    bool ok = true;
    uint64_t abortConflict = 0;
    uint64_t rawReports = 0;

    static OutcomeSummary of(const campaign::JobOutcome &o);
    /** Rebuild the strategy-visible JobOutcome. */
    campaign::JobOutcome toOutcome() const;
};

/** Resumable service state. */
struct Checkpoint
{
    campaign::CampaignConfig campaign;
    /** Job-id allocator value AFTER the current plan was drawn. */
    uint64_t nextId = 0;
    /** Completed round barriers. */
    uint64_t roundsDone = 0;
    uint64_t jobsTotal = 0;
    std::string strategyName;
    std::map<std::string, uint64_t> strategyState;
    /** The round in flight: full specs, including already-run jobs
     *  (the seen-set decides what resume actually re-submits). */
    std::vector<campaign::JobSpec> plan;
    /** Every folded outcome, id-sorted on write. */
    std::vector<OutcomeSummary> history;
    /** Spool bookkeeping: file name -> first job id assigned to it,
     *  so a resumed service reassigns identical ids. */
    std::map<std::string, uint64_t> spoolFirstId;
    campaign::Aggregator aggregate;

    /** Serialize as txrace-checkpoint-v1 (byte-deterministic). */
    void write(std::ostream &os) const;

    /** Parse; false with @p error on malformed/wrong-version input. */
    static bool parse(const std::string &text, Checkpoint &out,
                      std::string &error);
};

/**
 * Write @p content to @p path atomically: write `path.tmp`, fsync,
 * rename over @p path. False with @p error on I/O failure.
 */
bool writeFileAtomic(const std::string &path,
                     const std::string &content, std::string &error);

/** Slurp @p path. False with @p error when unreadable. */
bool readFile(const std::string &path, std::string &out,
              std::string &error);

} // namespace txrace::service

#endif // TXRACE_SERVICE_CHECKPOINT_HH
