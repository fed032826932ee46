/**
 * @file
 * Persistent, mergeable per-site observability profiles.
 *
 * A Profile aggregates per-IR-site counters — conflict / capacity /
 * other aborts, slow-path entries and their cost, monitor sampling
 * state, winner replays — keyed by workload name, and merges
 * commutatively: every field is either a uint64 sum or a max, so
 * merge(A, B) == merge(B, A) and merging is associative. Combined
 * with sorted-map iteration and integer-only serialization, the
 * `txrace-profile-v1` JSON is byte-deterministic: accumulating the
 * same set of runs in any order or across any worker count produces
 * identical bytes, which makes cross-run and cross-fleet aggregation
 * testable by `cmp`.
 *
 * This is the input contract for profile-guided transaction reshaping
 * (ROADMAP): the reshaping pass reads exactly this file to decide
 * which sites deserve widened windows or split transactions.
 *
 * Profiles carry only numeric site ids, not descriptions: ids are
 * stable for a given (workload, params) program build, and keeping
 * strings out of the file keeps parse → merge → rewrite byte-exact.
 * Join against the `sites` descriptions in a metrics JSON of the same
 * workload when human-readable output is needed.
 */

#ifndef TXRACE_TELEMETRY_PROFILE_HH
#define TXRACE_TELEMETRY_PROFILE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace txrace::telemetry {

class JsonWriter;
struct JsonValue;

/** Accumulated counters for one static IR site. */
struct SiteProfile
{
    uint64_t conflictAborts = 0;  ///< aborts where this site requested
    uint64_t capacityAborts = 0;  ///< own-footprint overflows at this site
    uint64_t otherAborts = 0;     ///< interrupt/retry aborts attributed here
    uint64_t slowChecks = 0;      ///< slow-path detector checks at this site
    uint64_t slowCost = 0;        ///< virtual cost of those checks
    /** Deepest monitor sampling shift ever applied (max-merged; a
     *  site that was ever cut to 1/2^k sampling keeps that mark). */
    uint64_t monitorShiftMax = 0;
    /** Winner replays this site triggered as the conflicting
     *  requester (input for reshaping: a site that keeps forcing
     *  replays is a transaction-boundary candidate). */
    uint64_t windowReplays = 0;

    void merge(const SiteProfile &o);
    bool empty() const;
};

/** Accumulated counters for one workload (app) across runs. */
struct AppProfile
{
    uint64_t runs = 0;            ///< runs folded into this entry
    uint64_t txBegins = 0;
    uint64_t txCommitted = 0;
    uint64_t slowRegions = 0;
    uint64_t monitorSiteCuts = 0;
    uint64_t monitorSiteProbes = 0;
    uint64_t monitorGatedChecks = 0;
    uint64_t monitorSampledSkips = 0;
    uint64_t windowReplays = 0;   ///< winner-window replays
    std::map<uint32_t, SiteProfile> sites;

    void merge(const AppProfile &o);
};

/** A whole profile file: app name -> accumulated counters. */
struct Profile
{
    std::map<std::string, AppProfile> apps;

    /** Fold @p o into this profile (commutative, associative). */
    void merge(const Profile &o);

    bool empty() const { return apps.empty(); }

    /** Serialize as txrace-profile-v1 (byte-deterministic). */
    void write(std::ostream &os) const;

    /**
     * Emit the fields of the profile body (`apps`) into an object
     * @p w has already opened. Lets other documents (the
     * txrace-findings-v1 store) embed a profile without nesting a
     * second schema header.
     */
    void writeBody(JsonWriter &w) const;

    /**
     * Parse a txrace-profile-v1 document. Returns true on success;
     * false with a message in @p error on malformed input or a
     * schema/version mismatch. Unknown fields are ignored so later
     * minor versions stay readable.
     */
    static bool parse(const std::string &text, Profile &out,
                      std::string &error);

    /** Inverse of writeBody: restore from a parsed body object. */
    static bool parseBody(const JsonValue &body, Profile &out,
                          std::string &error);
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_PROFILE_HH
