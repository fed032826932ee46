#include "campaign/aggregate.hh"

#include <algorithm>
#include <sstream>

#include "core/repro.hh"
#include "support/log.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"
#include "workloads/workloads.hh"

namespace txrace::campaign {

GroundTruth
groundTruthFor(const std::vector<std::string> &apps)
{
    GroundTruth truth;
    for (const std::string &app : apps) {
        std::set<std::string> &labels = truth[app];
        for (const workloads::RaceLabel &label :
             workloads::groundTruthRaces(app))
            labels.insert(core::raceLabelKey(label.a, label.b));
    }
    return truth;
}

bool
Aggregator::add(const JobOutcome &outcome,
                std::vector<const FoundRace *> *newFindings)
{
    // At-least-once delivery (service resume re-submits jobs whose
    // outcomes may already be checkpointed): a duplicate id folds
    // nothing.
    if (!seenJobs_.insert(outcome.spec.id).second)
        return false;
    ++runs_;
    maxRound_ = std::max<uint64_t>(maxRound_, outcome.spec.round);
    if (!outcome.ok)
        ++errors_;
    txCommitted_ += outcome.txCommitted;
    abortConflict_ += outcome.abortConflict;
    abortCapacity_ += outcome.abortCapacity;
    abortUnknown_ += outcome.abortUnknown;
    apps_.insert(outcome.spec.app);

    VariantAcc &va = variants_[outcome.spec.variant];
    ++va.runs;
    va.rawReports += outcome.races.size();
    rawReports_ += outcome.races.size();
    profile_.merge(outcome.profile);

    for (const FoundRace &race : outcome.races)
        if (foldRace(outcome, race) && newFindings)
            newFindings->push_back(&race);
    return true;
}

bool
Aggregator::foldRace(const JobOutcome &outcome, const FoundRace &race)
{
    Acc &acc = findings_[race.sig.key];
    const bool fresh = acc.runsSeen == 0;
    if (fresh) {
        acc.sig = race.sig;
        acc.app = outcome.spec.app;
    }
    ++acc.runsSeen;
    acc.totalHits += race.hits;
    // First sighting is the LOWEST job id ever to report the
    // race, regardless of the order outcomes reach us.
    if (outcome.spec.id < acc.firstJob) {
        acc.firstJob = outcome.spec.id;
        acc.firstKind = race.kind;
        acc.firstSeed = outcome.spec.seed;
        acc.firstVariant = outcome.spec.variant;
        acc.firstConfigDigest = outcome.configDigest;
        acc.firstRepro = outcome.repro;
    }
    return fresh;
}

void
Aggregator::merge(const Aggregator &o)
{
    seenJobs_.insert(o.seenJobs_.begin(), o.seenJobs_.end());
    apps_.insert(o.apps_.begin(), o.apps_.end());
    runs_ += o.runs_;
    errors_ += o.errors_;
    rawReports_ += o.rawReports_;
    txCommitted_ += o.txCommitted_;
    abortConflict_ += o.abortConflict_;
    abortCapacity_ += o.abortCapacity_;
    abortUnknown_ += o.abortUnknown_;
    maxRound_ = std::max(maxRound_, o.maxRound_);
    for (const auto &[name, va] : o.variants_) {
        VariantAcc &into = variants_[name];
        into.runs += va.runs;
        into.rawReports += va.rawReports;
    }
    profile_.merge(o.profile_);

    // Deterministic total order on first-sighting metadata. In the
    // resume path equal job ids carry identical metadata
    // (job execution is a pure function of the spec), so the
    // fallthrough comparisons only matter for unions of unrelated
    // stores — there they keep merge commutative.
    auto sightingLess = [](const Acc &x, const Acc &y) {
        if (x.firstJob != y.firstJob)
            return x.firstJob < y.firstJob;
        if (x.firstVariant != y.firstVariant)
            return x.firstVariant < y.firstVariant;
        if (x.firstSeed != y.firstSeed)
            return x.firstSeed < y.firstSeed;
        if (x.firstConfigDigest != y.firstConfigDigest)
            return x.firstConfigDigest < y.firstConfigDigest;
        if (x.firstRepro != y.firstRepro)
            return x.firstRepro < y.firstRepro;
        return uint8_t(x.firstKind) < uint8_t(y.firstKind);
    };
    for (const auto &[key, theirs] : o.findings_) {
        Acc &ours = findings_[key];
        if (ours.runsSeen == 0) {
            ours = theirs;
            continue;
        }
        ours.runsSeen += theirs.runsSeen;
        ours.totalHits += theirs.totalHits;
        if (sightingLess(theirs, ours)) {
            ours.firstJob = theirs.firstJob;
            ours.firstKind = theirs.firstKind;
            ours.firstSeed = theirs.firstSeed;
            ours.firstVariant = theirs.firstVariant;
            ours.firstConfigDigest = theirs.firstConfigDigest;
            ours.firstRepro = theirs.firstRepro;
        }
    }
}

void
Aggregator::writeState(telemetry::JsonWriter &w) const
{
    w.beginObject();
    w.field("runs", runs_);
    w.field("errors", errors_);
    w.field("raw_reports", rawReports_);
    w.field("tx_committed", txCommitted_);
    w.field("abort_conflict", abortConflict_);
    w.field("abort_capacity", abortCapacity_);
    w.field("abort_unknown", abortUnknown_);
    w.field("max_round", maxRound_);
    w.key("seen_jobs");
    w.beginArray();
    for (uint64_t id : seenJobs_)
        w.value(id);
    w.endArray();
    w.key("apps");
    w.beginArray();
    for (const std::string &app : apps_)
        w.value(app);
    w.endArray();
    w.key("findings");
    w.beginArray();
    for (const auto &[key, acc] : findings_) {
        w.beginObject();
        w.key("sig");
        core::writeRaceSig(w, acc.sig);
        w.field("app", acc.app);
        w.field("runs_seen", acc.runsSeen);
        w.field("total_hits", acc.totalHits);
        w.field("first_job", acc.firstJob);
        w.field("first_kind", detector::raceKindName(acc.firstKind));
        w.field("first_seed", acc.firstSeed);
        w.field("first_config", acc.firstConfigDigest);
        w.field("first_variant", acc.firstVariant);
        w.field("first_repro", acc.firstRepro);
        w.endObject();
    }
    w.endArray();
    w.key("variants");
    w.beginObject();
    for (const auto &[name, va] : variants_) {
        w.key(name);
        w.beginObject();
        w.field("runs", va.runs);
        w.field("raw_reports", va.rawReports);
        w.endObject();
    }
    w.endObject();
    w.key("profile");
    w.beginObject();
    profile_.writeBody(w);
    w.endObject();
    w.endObject();
}

bool
Aggregator::loadState(const telemetry::JsonValue &v, std::string &error)
{
    *this = Aggregator{};
    if (!v.isObject()) {
        error = "aggregate state is not an object";
        return false;
    }
    runs_ = getU64(v, "runs");
    errors_ = getU64(v, "errors");
    rawReports_ = getU64(v, "raw_reports");
    txCommitted_ = getU64(v, "tx_committed");
    abortConflict_ = getU64(v, "abort_conflict");
    abortCapacity_ = getU64(v, "abort_capacity");
    abortUnknown_ = getU64(v, "abort_unknown");
    maxRound_ = getU64(v, "max_round");

    const telemetry::JsonValue *seen = v.find("seen_jobs");
    if (!seen || !seen->isArray()) {
        error = "aggregate state: missing seen_jobs array";
        return false;
    }
    for (const telemetry::JsonValue &id : seen->array)
        seenJobs_.insert(id.asU64());

    if (const telemetry::JsonValue *apps = v.find("apps");
        apps && apps->isArray())
        for (const telemetry::JsonValue &app : apps->array)
            if (app.isString())
                apps_.insert(app.str);

    const telemetry::JsonValue *findings = v.find("findings");
    if (!findings || !findings->isArray()) {
        error = "aggregate state: missing findings array";
        return false;
    }
    for (const telemetry::JsonValue &f : findings->array) {
        if (!f.isObject()) {
            error = "aggregate state: finding entry is not an object";
            return false;
        }
        const telemetry::JsonValue *sigv = f.find("sig");
        Acc acc;
        if (!sigv || !core::readRaceSig(*sigv, acc.sig, error)) {
            if (error.empty())
                error = "aggregate state: finding without sig";
            return false;
        }
        acc.app = getStr(f, "app");
        acc.runsSeen = getU64(f, "runs_seen");
        acc.totalHits = getU64(f, "total_hits");
        if (acc.runsSeen == 0) {
            error = "aggregate state: finding '" + acc.sig.a +
                    "' with zero runs_seen";
            return false;
        }
        acc.firstJob = getU64(f, "first_job");
        if (!detector::raceKindFromName(getStr(f, "first_kind"),
                                        acc.firstKind)) {
            error = "aggregate state: bad first_kind '" +
                    getStr(f, "first_kind") + "'";
            return false;
        }
        acc.firstSeed = getU64(f, "first_seed");
        acc.firstConfigDigest = getU64(f, "first_config");
        acc.firstVariant = getStr(f, "first_variant");
        acc.firstRepro = getStr(f, "first_repro");
        if (!findings_.emplace(acc.sig.key, std::move(acc)).second) {
            error = "aggregate state: duplicate finding key";
            return false;
        }
    }

    if (const telemetry::JsonValue *vars = v.find("variants");
        vars && vars->isObject()) {
        for (const auto &[name, entry] : vars->object) {
            if (!entry.isObject()) {
                error = "aggregate state: variant '" + name +
                        "' is not an object";
                return false;
            }
            VariantAcc &va = variants_[name];
            va.runs = getU64(entry, "runs");
            va.rawReports = getU64(entry, "raw_reports");
        }
    }

    if (const telemetry::JsonValue *prof = v.find("profile")) {
        if (!telemetry::Profile::parseBody(*prof, profile_, error))
            return false;
    }
    return true;
}

std::vector<std::tuple<std::string, uint64_t, uint64_t>>
Aggregator::variantCounters() const
{
    std::vector<std::tuple<std::string, uint64_t, uint64_t>> out;
    for (const auto &[name, va] : variants_)
        out.emplace_back(name, va.runs, va.rawReports);
    return out;
}

CampaignResult
Aggregator::finalize(const CampaignConfig &cfg,
                     const GroundTruth &groundTruth) const
{
    CampaignResult result;
    result.runs = runs_;
    result.rounds = runs_ ? maxRound_ + 1 : 0;
    result.errors = errors_;
    result.rawReports = rawReports_;
    result.txCommitted = txCommitted_;
    result.abortConflict = abortConflict_;
    result.abortCapacity = abortCapacity_;
    result.abortUnknown = abortUnknown_;

    // Per-app tallies of distinct matched annotations (recall needs
    // distinct labels: several findings may share one annotation when
    // an init-idiom pair also races plainly).
    std::map<std::string, std::set<std::string>> matched;
    std::map<std::string, uint64_t> foundPerApp, fpPerApp;

    for (const auto &[key, acc] : findings_) {
        Finding f;
        f.sig = acc.sig;
        f.app = acc.app;
        f.kind = detector::raceKindName(acc.firstKind);
        f.runsSeen = acc.runsSeen;
        f.totalHits = acc.totalHits;
        f.firstJob = acc.firstJob;
        f.firstSeed = acc.firstSeed;
        f.firstVariant = acc.firstVariant;
        f.firstConfigDigest = acc.firstConfigDigest;
        f.repro = acc.firstRepro;

        auto gt = groundTruth.find(acc.app);
        f.inGroundTruth =
            gt != groundTruth.end() && gt->second.count(acc.sig.label);
        ++foundPerApp[acc.app];
        if (f.inGroundTruth)
            matched[acc.app].insert(acc.sig.label);
        else
            ++fpPerApp[acc.app];

        result.findings.push_back(std::move(f));
    }
    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding &x, const Finding &y) {
                  if (x.sig.hash != y.sig.hash)
                      return x.sig.hash < y.sig.hash;
                  return x.sig.key < y.sig.key;
              });

    for (const std::string &app : cfg.apps) {
        AppScore score;
        score.app = app;
        auto gt = groundTruth.find(app);
        score.expected = gt == groundTruth.end() ? 0 : gt->second.size();
        score.found = foundPerApp.count(app) ? foundPerApp.at(app) : 0;
        score.matched =
            matched.count(app) ? matched.at(app).size() : 0;
        score.falsePositives =
            fpPerApp.count(app) ? fpPerApp.at(app) : 0;
        // True positives for precision are findings whose label
        // matches an annotation (may exceed `matched` when two
        // distinct instruction pairs share a label).
        uint64_t tp = score.found - score.falsePositives;
        score.precision =
            score.found ? double(tp) / double(score.found) : 1.0;
        score.recall = score.expected
                           ? double(score.matched) /
                                 double(score.expected)
                           : 1.0;
        result.scores.push_back(score);
    }

    for (const auto &[name, va] : variants_) {
        VariantYield vy;
        vy.variant = name;
        vy.runs = va.runs;
        vy.rawReports = va.rawReports;
        result.variants.push_back(vy);
    }
    for (const Finding &f : result.findings)
        for (VariantYield &vy : result.variants)
            if (vy.variant == f.firstVariant)
                ++vy.firstFound;

    result.dedupRatio =
        result.findings.empty()
            ? 1.0
            : double(result.rawReports) /
                  double(result.findings.size());
    result.profile = profile_;

    StatSet &st = result.stats;
    st.set("campaign.runs", result.runs);
    st.set("campaign.rounds", result.rounds);
    st.set("campaign.errors", result.errors);
    st.set("campaign.raw_reports", result.rawReports);
    st.set("campaign.unique_findings", result.findings.size());
    st.set("campaign.tx_committed", result.txCommitted);
    st.set("campaign.abort_conflict", result.abortConflict);
    st.set("campaign.abort_capacity", result.abortCapacity);
    st.set("campaign.abort_unknown", result.abortUnknown);
    uint64_t totalMatched = 0, totalExpected = 0, totalFp = 0;
    for (const AppScore &s : result.scores) {
        totalMatched += s.matched;
        totalExpected += s.expected;
        totalFp += s.falsePositives;
    }
    st.set("campaign.gt_matched", totalMatched);
    st.set("campaign.gt_expected", totalExpected);
    st.set("campaign.false_positives", totalFp);

    return result;
}

void
writeCampaignJson(std::ostream &os, const CampaignConfig &cfg,
                  const CampaignResult &result)
{
    telemetry::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "txrace-campaign-v1");

    // Campaign identity: everything that determines the report.
    // Deliberately NOT here: jobs, wall time, steals —
    // execution facts that must not leak into the deterministic
    // artifact.
    w.key("campaign");
    w.beginObject();
    w.field("master_seed", cfg.masterSeed);
    w.field("strategy", cfg.strategy);
    w.field("mode", core::cliModeName(cfg.mode));
    w.key("apps");
    w.beginArray();
    for (const std::string &app : cfg.apps)
        w.value(app);
    w.endArray();
    w.field("seeds_per_app", cfg.seedsPerApp);
    w.field("workers", uint64_t(cfg.workers));
    w.field("scale", cfg.scale);
    w.endObject();

    w.key("totals");
    w.beginObject();
    w.field("runs", result.runs);
    w.field("rounds", result.rounds);
    w.field("errors", result.errors);
    w.field("raw_reports", result.rawReports);
    w.field("unique_findings", uint64_t(result.findings.size()));
    w.field("dedup_ratio", result.dedupRatio);
    w.field("tx_committed", result.txCommitted);
    w.field("abort_conflict", result.abortConflict);
    w.field("abort_capacity", result.abortCapacity);
    w.field("abort_unknown", result.abortUnknown);
    w.endObject();

    w.key("findings");
    w.beginArray();
    for (const Finding &f : result.findings) {
        w.beginObject();
        w.field("fingerprint", telemetry::hex64(f.sig.hash));
        w.field("app", f.app);
        w.field("a", f.sig.a);
        w.field("b", f.sig.b);
        w.field("kind", f.kind);
        w.field("runs_seen", f.runsSeen);
        w.field("total_hits", f.totalHits);
        w.field("in_ground_truth", f.inGroundTruth);
        w.key("first_seen");
        w.beginObject();
        w.field("job", f.firstJob);
        w.field("seed", f.firstSeed);
        w.field("variant", f.firstVariant);
        w.field("config", telemetry::hex64(f.firstConfigDigest));
        w.field("repro", f.repro);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("scores");
    w.beginArray();
    for (const AppScore &s : result.scores) {
        w.beginObject();
        w.field("app", s.app);
        w.field("expected", s.expected);
        w.field("found", s.found);
        w.field("matched", s.matched);
        w.field("false_positives", s.falsePositives);
        w.field("precision", s.precision);
        w.field("recall", s.recall);
        w.endObject();
    }
    w.endArray();

    w.key("variants");
    w.beginArray();
    for (const VariantYield &vy : result.variants) {
        w.beginObject();
        w.field("variant", vy.variant);
        w.field("runs", vy.runs);
        w.field("raw_reports", vy.rawReports);
        w.field("first_found", vy.firstFound);
        w.endObject();
    }
    w.endArray();

    w.key("stats");
    w.beginObject();
    for (const auto &[name, value] : result.stats.all())
        w.field(name, value);
    w.endObject();

    w.endObject();
    os << "\n";
}

void
writeCampaignTrace(std::ostream &os, const CampaignResult &result)
{
    // Chrome trace-event format: one complete ("X") event per job
    // span, the pool worker id as the trace's thread lane.
    telemetry::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const JobSpan &s : result.timing.spans) {
        std::ostringstream name;
        name << s.app << " seed=" << s.seed;
        if (s.variant != "base")
            name << " [" << s.variant << "]";
        w.beginObject();
        w.field("name", name.str());
        w.field("cat", "job");
        w.field("ph", "X");
        w.field("ts", s.startMicros);
        w.field("dur", s.wallMicros);
        w.field("pid", uint64_t(0));
        w.field("tid", uint64_t(s.worker));
        w.key("args");
        w.beginObject();
        w.field("job", s.job);
        w.field("round", uint64_t(s.round));
        w.field("raw_reports", s.rawReports);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    os << "\n";
}

} // namespace txrace::campaign
