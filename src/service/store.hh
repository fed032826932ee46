/**
 * @file
 * The persistent findings store: txrace-findings-v1.
 *
 * One store file is the durable form of an Aggregator plus the
 * campaign identity that produced it. Like the profile store it is
 * byte-deterministic (sorted maps, integer counters) and merges
 * commutatively — two stores produced independently on different
 * hosts union into the same bytes in either merge order, provided
 * they describe the SAME campaign identity (merging unrelated
 * campaigns is refused: their job-id spaces and ground truths are
 * incomparable).
 *
 * The campaign identity block holds exactly the fields that
 * determine the deterministic report — master seed, strategy, mode,
 * slow path, apps, seed budget, workers, scale, calibration — and
 * none of the execution facts (jobs, state dir), so a store written
 * under `--jobs 8` is byte-identical to one written under
 * `--jobs 1`.
 */

#ifndef TXRACE_SERVICE_STORE_HH
#define TXRACE_SERVICE_STORE_HH

#include <ostream>
#include <string>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"

namespace txrace::telemetry {
class JsonWriter;
struct JsonValue;
} // namespace txrace::telemetry

namespace txrace::service {

/** Write the campaign identity fields into an open object. */
void writeCampaignIdentity(telemetry::JsonWriter &w,
                           const campaign::CampaignConfig &cfg);

/**
 * Read identity fields written by writeCampaignIdentity into @p cfg
 * (execution knobs — jobs, queue — are left untouched).
 */
bool readCampaignIdentity(const telemetry::JsonValue &v,
                          campaign::CampaignConfig &cfg,
                          std::string &error);

/** Whether two configs name the same campaign (identity subset). */
bool sameCampaignIdentity(const campaign::CampaignConfig &a,
                          const campaign::CampaignConfig &b);

/**
 * Replace @p cfg's identity fields with @p from's (`--resume`: the
 * checkpoint names the campaign). Execution knobs — jobs, queue,
 * cadences — keep @p cfg's values.
 */
void adoptCampaignIdentity(campaign::CampaignConfig &cfg,
                           const campaign::CampaignConfig &from);

/** A findings store: campaign identity + accumulated aggregate. */
struct FindingsStore
{
    campaign::CampaignConfig campaign;
    campaign::Aggregator aggregate;

    /** Serialize as txrace-findings-v1 (byte-deterministic). */
    void write(std::ostream &os) const;

    /**
     * Parse a txrace-findings-v1 document. False with a message in
     * @p error on malformed input, schema/version mismatch, or an
     * internally inconsistent aggregate.
     */
    static bool parse(const std::string &text, FindingsStore &out,
                      std::string &error);

    /**
     * Union @p o into this store (cross-host merge). Commutative:
     * merge(A, B) and merge(B, A) serialize to identical bytes.
     * False when the identities differ — the error names both
     * campaigns. The two stores must cover disjoint job-id sets
     * (hosts partition the matrix); see Aggregator::merge.
     */
    bool merge(const FindingsStore &o, std::string &error);
};

} // namespace txrace::service

#endif // TXRACE_SERVICE_STORE_HH
