/**
 * @file
 * NDJSON job ingestion for the hunting service.
 *
 * A job batch is NDJSON: one job request per line,
 *
 *   {"app": "vips", "seed": 7, "variant": "irq-x4",
 *    "irq_scale": 4.0, "workers": 4, "scale": 1, "governor": false}
 *
 * Only `app` is required; everything else defaults from the campaign
 * identity. Batches arrive on stdin or as files in a spool
 * directory; spool files are processed in sorted-filename order and
 * line order within a file, so job-id assignment — hence the final
 * report — is a pure function of the spool contents, independent of
 * arrival timing. Blank lines separate stdin batches.
 */

#ifndef TXRACE_SERVICE_INGEST_HH
#define TXRACE_SERVICE_INGEST_HH

#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/job.hh"

namespace txrace::telemetry {
struct JsonValue;
} // namespace txrace::telemetry

namespace txrace::service {

/**
 * Read one job record (a job line, or a checkpoint's plan or history
 * entry) into @p spec. Only `app` is required; the run starts from
 * campaign::baseIdentity(@p cfg). False with a message in @p error
 * when @p v is not an object, has no app, has a field of the wrong
 * type or range, or names a run core::identityError() refuses.
 */
bool readJobSpec(const telemetry::JsonValue &v,
                 const campaign::CampaignConfig &cfg,
                 campaign::JobSpec &spec, std::string &error);

/**
 * Parse one NDJSON job line into a spec (no id assigned; the service
 * allocates ids in ingest order). Defaults come from @p cfg. False
 * with a message in @p error on malformed input or a record
 * readJobSpec() refuses.
 */
bool parseJobLine(const std::string &line,
                  const campaign::CampaignConfig &cfg,
                  campaign::JobSpec &spec, std::string &error);

/**
 * Parse a whole NDJSON batch (blank lines skipped) into @p specs, one
 * per good line. A bad line is refused, not fatal: the good lines
 * around it are still parsed. Returns the number of lines refused;
 * @p error then names each by its 1-based line number.
 */
size_t parseJobBatch(const std::string &text,
                     const campaign::CampaignConfig &cfg,
                     std::vector<campaign::JobSpec> &specs,
                     std::string &error);

/** Regular files in @p dir, sorted by name (the spool order). */
std::vector<std::string> listSpoolFiles(const std::string &dir);

} // namespace txrace::service

#endif // TXRACE_SERVICE_INGEST_HH
