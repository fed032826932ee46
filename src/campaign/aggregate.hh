/**
 * @file
 * The campaign aggregator: folds job outcomes — arriving in
 * arbitrary completion order — into the deterministic campaign
 * result.
 *
 * Dedup is by RaceSig *key* (the full app-scoped endpoint-pair
 * string); the 64-bit fingerprint hash is a display/sort handle
 * only, so a hash collision degrades nothing but cosmetics. The
 * "first sighting" of a finding is the outcome with the LOWEST JOB
 * ID that reported it — a min-fold, order-independent — and its
 * seed/variant/config digest/repro command are what the report
 * carries as reproduction metadata.
 *
 * Delivery contract: add() is idempotent on job id. The service
 * layer re-submits jobs whose outcomes may or may not have been
 * checkpointed (at-least-once delivery across kill/resume), so a
 * duplicate fold must change nothing. State is also a commutative
 * monoid under merge(): independently produced findings stores
 * union into the same bytes no matter the merge order.
 *
 * Not thread-safe. Both drivers (runCampaign and the hunting
 * service) fold on the single thread that drains the result queue;
 * pool workers never touch the aggregator.
 */

#ifndef TXRACE_CAMPAIGN_AGGREGATE_HH
#define TXRACE_CAMPAIGN_AGGREGATE_HH

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/job.hh"
#include "telemetry/profile.hh"

namespace txrace::telemetry {
class JsonWriter;
struct JsonValue;
} // namespace txrace::telemetry

namespace txrace::campaign {

/** App name -> the core::raceLabelKey() strings of its planted races. */
using GroundTruth = std::map<std::string, std::set<std::string>>;

/**
 * Ground truth for every app of @p apps. fatal()s on an unknown app
 * name, so drivers call it before any pool thread spawns.
 */
GroundTruth groundTruthFor(const std::vector<std::string> &apps);

class Aggregator
{
  public:
    /**
     * Fold one outcome in. Any order; idempotent on the job id — a
     * second add of an id already folded (including via merge() of a
     * checkpointed state) is a no-op. Returns false for such
     * duplicates, true when the outcome was folded. When
     * @p newFindings is non-null it receives pointers (into
     * @p outcome) to the races that created a NEW finding — the
     * service's incremental delta feed.
     */
    bool add(const JobOutcome &outcome,
             std::vector<const FoundRace *> *newFindings = nullptr);

    /** Whether job @p id has already been folded in. */
    bool seen(uint64_t id) const { return seenJobs_.count(id) != 0; }

    /** Outcomes folded so far. */
    uint64_t runs() const { return runs_; }

    // Snapshot accessors for the progress stream: cheap, callable
    // between add()s, and pure functions of the outcomes folded so
    // far (hence deterministic at every round barrier).
    /** Distinct deduplicated races so far. */
    uint64_t findingCount() const { return findings_.size(); }
    /** Pre-dedup race reports so far. */
    uint64_t rawReports() const { return rawReports_; }
    /** Abnormally-ended jobs so far. */
    uint64_t errorCount() const { return errors_; }
    /** Per-variant (runs, raw reports) so far, name-ordered. */
    std::vector<std::tuple<std::string, uint64_t, uint64_t>>
    variantCounters() const;

    /**
     * Commutative, associative fold of another aggregator's state
     * into this one: counters sum, first sightings min-fold by job
     * id, variant and finding maps union, seen-job sets union. The
     * cross-host findings-store union relies on merge(A, B) ==
     * merge(B, A). Callers union states holding DISJOINT job sets
     * (hosts covering different parts of a matrix); overlapping sets
     * would double count the jobs both sides folded.
     */
    void merge(const Aggregator &o);

    /**
     * Serialize the accumulated state as the `aggregate` object of a
     * txrace-findings-v1 document (docs/OBSERVABILITY.md).
     * Byte-deterministic: sorted maps and integer-only counters, so
     * checkpoint → load → checkpoint round-trips exactly.
     */
    void writeState(telemetry::JsonWriter &w) const;

    /**
     * Restore state from a parsed `aggregate` object, replacing the
     * current contents. Returns false with a description in
     * @p error on malformed input; the aggregator is left empty.
     */
    bool loadState(const telemetry::JsonValue &v, std::string &error);

    /**
     * Produce the deterministic result (no timing filled in).
     * @p groundTruth is groundTruthFor(cfg.apps); scoring uses
     * cfg.apps order.
     */
    CampaignResult finalize(const CampaignConfig &cfg,
                            const GroundTruth &groundTruth) const;

  private:
    /** One race report of @p outcome into the findings map. Returns
     *  true when the race key was new (a finding delta). */
    bool foldRace(const JobOutcome &outcome, const FoundRace &race);

    /** Keyed by RaceSig::key (full identity, not the hash); ground
     *  truth is judged at finalize(). */
    std::map<std::string, Finding> findings_;

    struct VariantAcc
    {
        uint64_t runs = 0;
        uint64_t rawReports = 0;
    };
    std::map<std::string, VariantAcc> variants_;

    /** Fleet profile union (commutative merge ⇒ order-free). */
    telemetry::Profile profile_;

    /** Job ids already folded (the idempotence ledger). */
    std::set<uint64_t> seenJobs_;
    /** Apps that contributed at least one outcome. */
    std::set<std::string> apps_;

    uint64_t runs_ = 0;
    uint64_t errors_ = 0;
    uint64_t rawReports_ = 0;
    uint64_t txCommitted_ = 0;
    uint64_t abortConflict_ = 0;
    uint64_t abortCapacity_ = 0;
    uint64_t abortUnknown_ = 0;
    uint64_t maxRound_ = 0;
};

} // namespace txrace::campaign

#endif // TXRACE_CAMPAIGN_AGGREGATE_HH
