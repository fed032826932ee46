/**
 * @file
 * The txrace-progress-v1 heartbeat record, shared by the one-shot
 * campaign driver and the hunting service.
 *
 * One compact NDJSON line per record. Cadence is the caller's
 * business (the campaign emits every cfg.progressEvery completions;
 * the service also emits on batch boundaries and checkpoints); this
 * module owns the wire format and the core fields, so the two
 * producers cannot drift. Core fields are filled by one builder,
 * RoundRunner::progress (runner.hh), from the aggregator and the
 * round runner's worker lanes, which both drivers share; service-only
 * gauges ride in a trailing `service` object that one-shot campaigns
 * omit, keeping old consumers' field paths valid.
 */

#ifndef TXRACE_CAMPAIGN_PROGRESS_HH
#define TXRACE_CAMPAIGN_PROGRESS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace txrace::campaign {

/** One heartbeat. Plain data; fill and write. */
struct ProgressRecord
{
    /** "progress", "end", or a service event ("batch", "checkpoint",
     *  "resume", "shutdown"). */
    std::string event = "progress";
    uint64_t round = 0;
    uint64_t jobsTotal = 0;
    uint64_t jobsDone = 0;
    uint64_t findings = 0;
    uint64_t rawReports = 0;
    uint64_t errors = 0;
    /** (variant, runs, raw reports), name-sorted. */
    std::vector<std::tuple<std::string, uint64_t, uint64_t>> variants;
    /** Per-pool-worker (jobs done, busy now) gauges. */
    std::vector<std::pair<uint64_t, bool>> workers;
    /** Service gauges, emitted in the given order when nonempty
     *  (ingest rate, checkpoint latency — see
     *  docs/OBSERVABILITY.md). */
    std::vector<std::pair<std::string, uint64_t>> service;
};

/** Write @p rec as one txrace-progress-v1 NDJSON line (flushed). */
void writeProgressRecord(std::ostream &os, const ProgressRecord &rec);

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_PROGRESS_HH
