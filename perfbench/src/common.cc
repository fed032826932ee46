#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>

#include <sys/resource.h>

#include "core/fingerprint.hh"
#include "core/runmode.hh"

namespace perfbench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

Tracer::Scope::Scope(Tracer *tracer, const char *name)
    : tracer_(tracer && tracer->enabled_ ? tracer : nullptr)
{
    if (!tracer_)
        return;
    double now = std::chrono::duration<double, std::micro>(
                     Clock::now() - tracer_->origin_)
                     .count();
    int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back({name, now, now, parent});
    tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].endUs =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  tracer_->origin_)
            .count();
    tracer_->open_.pop_back();
}

double
Tracer::totalMs(std::string_view name) const
{
    double us = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            us += s.endUs - s.startUs;
    return us / 1e3;
}

uint64_t
Tracer::count(std::string_view name) const
{
    uint64_t n = 0;
    for (const Span &s : spans_)
        n += name == s.name;
    return n;
}

double
Tracer::meanMs(std::string_view name) const
{
    uint64_t n = count(name);
    return n ? totalMs(name) / double(n) : 0.0;
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childUs[s.parent] += s.endUs - s.startUs;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        std::string_view name = spans_[i].name;
        std::string layer(name.substr(0, name.find('.')));
        self[layer] +=
            (spans_[i].endUs - spans_[i].startUs - childUs[i]) / 1e3;
    }
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string_view name = s.name;
        std::string layer(name.substr(0, name.find('.')));
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      i ? "," : "", s.name, layer.c_str(), s.startUs,
                      s.endUs - s.startUs, i, s.parent);
        out << buf;
    }
    out << "\n]}\n";
    return bool(out);
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 0x100000001b3ULL;
}

void
Digest::add(uint64_t value)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = char(value >> (8 * i));
    add(std::string_view(buf, 8));
}

const char *
laneName(Lane lane)
{
    static const char *const names[] = {"native", "tsan", "txrace"};
    return names[lane];
}

namespace {

/**
 * Lowest recall a correct run may report. Overlap-based detection
 * misses the initialization-idiom races (bodytrack 2 of 8, facesim 1
 * of 9) and a schedule-sensitive share of vips' boundary exchanges
 * (paper §8.3); everything else, and every TSan run, finds all.
 */
double
recallFloor(const std::string &app, Lane lane)
{
    if (lane == kTsan)
        return 1.0;
    if (app == "bodytrack")
        return 6.0 / 8.0;
    if (app == "facesim")
        return 8.0 / 9.0;
    if (app == "vips")
        return 0.5;
    return 1.0;
}

} // namespace

Verdict
checkRun(const workloads::AppModel &app, const core::RunResult &result,
         Lane lane)
{
    Verdict v;
    std::set<std::string> truth;
    for (const workloads::RaceLabel &label : app.groundTruth)
        truth.insert(core::raceLabelKey(label.a, label.b));
    std::set<std::string> reported;
    for (const auto &[sig, race] :
         core::fingerprintedRaces(app.program, result.races))
        reported.insert(sig.label);
    for (const std::string &label : reported) {
        if (lane != kNative && truth.count(label))
            ++v.matched;
        else
            ++v.falsePositives;
    }
    if (lane != kNative)
        v.expected = truth.size();

    std::string what = app.name + "/" + laneName(lane);
    if (!result.error.ok()) {
        v.failure = what + ": run ended in RunError " +
                    sim::runErrorKindName(result.error.kind);
    } else if (v.falsePositives) {
        v.failure = what + ": " + std::to_string(v.falsePositives) +
                    " race(s) outside the ground truth";
    } else if (v.expected &&
               double(v.matched) <
                   recallFloor(app.name, lane) * double(v.expected) -
                       1e-9) {
        v.failure = what + ": recall " + std::to_string(v.matched) +
                    "/" + std::to_string(v.expected) +
                    " below the app's floor";
    }
    for (const core::BudgetWindow &w : result.budget.windows)
        if (w.hardOver && v.failure.empty())
            v.failure = what + ": a budget window went over";
    return v;
}

void
Tally::keep(const workloads::AppModel &app, Lane lane, uint64_t seed,
            const core::RunResult &result)
{
    counters[lane].merge(result.stats);
    digest.add(app.name);
    digest.add(laneName(lane));
    digest.add(seed);
    digest.add(result.totalCost);
    for (uint64_t bucket : result.buckets)
        digest.add(bucket);
    for (const auto &[sig, race] :
         core::fingerprintedRaces(app.program, result.races)) {
        digest.add(sig.hash);
        digest.add(race.hits);
    }
    for (const auto &[name, value] : result.stats.all()) {
        digest.add(name);
        digest.add(value);
    }
    for (const core::BudgetWindow &w : result.budget.windows) {
        digest.add(w.overhead);
        digest.add(uint64_t(w.hardOver) | uint64_t(w.refused) << 1);
    }
    digest.add(sim::runErrorKindName(result.error.kind));
}

core::RunResult
timedRun(const workloads::AppModel &app, const core::RunConfig &cfg,
         Lane lane, Tally &tally, Tracer &tracer, double &ms)
{
    Clock::time_point t0 = Clock::now();
    core::RunResult result = [&] {
        auto span = tracer.span("core.runProgram");
        return core::runProgram(app.program, cfg);
    }();
    ms = msSince(t0);
    LaneHost &host = tally.lanes[lane];
    host.ms += ms;
    host.runs += 1;
    host.steps += result.error.stepsExecuted;
    return result;
}

uint64_t
nativeBaseline(const workloads::AppModel &app, uint64_t seed,
               Tally &tally, Tracer &tracer)
{
    core::RunConfig cfg;
    cfg.mode = core::RunMode::Native;
    cfg.machine = app.machine;
    cfg.machine.seed = seed;
    double ms = 0.0;
    core::RunResult result = timedRun(app, cfg, kNative, tally, tracer, ms);
    tally.record(checkRun(app, result, kNative),
                 "seed " + std::to_string(seed));
    tally.keep(app, kNative, seed, result);
    return result.totalCost;
}

void
Tally::fail(const std::string &why, uint64_t runs)
{
    failed += runs;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
Tally::record(const Verdict &verdict, const std::string &what)
{
    ++attempted;
    if (!verdict.failure.empty())
        fail(what + " " + verdict.failure);
}

void
mergeAttempts(Tally &into, const Tally &from)
{
    into.attempted += from.attempted;
    into.failed += from.failed;
    for (const std::string &why : from.failures)
        if (into.failures.size() < 8)
            into.failures.push_back(why);
}

double
probeLayers(const std::vector<workloads::AppModel> &apps, Tracer &tracer,
            bool withTsan)
{
    uint64_t candidates = 0, elided = 0;
    for (const workloads::AppModel &app : apps) {
        passes::ElisionStats elision;
        ir::Program prepared = [&] {
            auto span = tracer.span("passes.preparedForTxRace");
            return passes::preparedForTxRace(app.program, {}, &elision);
        }();
        candidates += elision.candidates;
        elided += elision.elided();
        if (withTsan) {
            auto span = tracer.span("passes.preparedForTSan");
            passes::preparedForTSan(app.program);
        }
        sim::ExecutionPolicy idle;
        std::unique_ptr<sim::Machine> machine;
        {
            auto span = tracer.span("sim.Machine");
            machine =
                std::make_unique<sim::Machine>(prepared, app.machine, idle);
        }
    }
    return candidates ? double(elided) / double(candidates) : 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void
addCommonEndToEnd(Report &report, const Tally &tally,
                  double setupSeconds, double simOverheadTxrace,
                  double tailLevel)
{
    std::vector<double> ms = tally.runMs;
    std::sort(ms.begin(), ms.end());
    size_t n = ms.size();
    // Highest percentile with at least ten samples beyond it, capped
    // at the workload's fixed level so a faster build never reports
    // a deeper (and larger) percentile than its parent did.
    double level = tailLevel;
    while (level > 0.5 && double(n) * (1.0 - level) < 10.0)
        level = level > 0.9 ? 0.9 : 0.5;
    auto rank = [&](double p) {
        size_t k = size_t(std::ceil(p * double(n)));
        return n ? ms[std::min(n - 1, k ? k - 1 : 0)] : 0.0;
    };
    report.endToEnd = {
        {"setup_s", setupSeconds, "s"},
        {"sim_overhead_txrace", simOverheadTxrace, "x"},
        {"recall",
         tally.expected ? double(tally.matched) / double(tally.expected)
                        : 1.0,
         "frac"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    // Host speed is printed, not gated. On a shared 4-vCPU Xeon VM it
    // drifts between whole runs: ten 30 s runs of one workload spread
    // 19-40% between their quartiles, wider than any bound a gate can
    // use. A fixed reference kernel timed after every run slows less
    // than the simulator does in a slow phase, so dividing by it still
    // left 8% of spread over 10 s runs. Compare host speed in
    // alternating parent/change pairs instead.
    double secs = tally.loopSeconds;
    report.info.push_back(
        {"runs_per_s", secs > 0 ? double(n) / secs : 0.0, "1/s"});
    report.info.push_back(
        {"sim_steps_per_s",
         secs > 0 ? double(tally.loopSteps) / secs : 0.0, "1/s"});
    report.info.push_back({"run_ms_p50", rank(0.5), "ms"});
    report.info.push_back({"run_ms_tail", rank(level), "ms"});
    report.info.push_back({"run_ms_tail.percentile", 100.0 * level, "%"});
    report.info.push_back({"run_ms.samples", double(n), "count"});
}

void
addCommonPerLayer(Report &report, const Tally &tally,
                  const Tracer &tracer, const LayerExtras &extras)
{
    const StatSet &txr = tally.counters[kTxrace];
    auto sum = [&](const char *name) {
        uint64_t v = 0;
        for (const StatSet &s : tally.counters)
            v += s.get(name);
        return double(v);
    };
    auto get = [&](const char *name) { return double(txr.get(name)); };
    auto frac = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    std::vector<Metric> &m = report.perLayer;

    double calibrated = tracer.meanMs("workloads.build_calibrated");
    double build = tracer.meanMs("workloads.build");
    m.push_back({"workloads.build_ms", build, "ms"});
    m.push_back({"workloads.calibrate_ms",
                 calibrated > 0 ? std::max(0.0, calibrated - build) : 0.0,
                 "ms"});

    uint64_t prepares = tracer.count("passes.preparedForTxRace") +
                        tracer.count("passes.preparedForTSan");
    m.push_back({"passes.prepare_ms",
                 frac(tracer.totalMs("passes.preparedForTxRace") +
                          tracer.totalMs("passes.preparedForTSan"),
                      double(prepares)),
                 "ms"});
    m.push_back({"passes.elided_frac", extras.elidedFrac, "frac"});
    double instrumented = get("txrace.access.instrumented");
    m.push_back({"passes.instrumented_frac",
                 frac(instrumented,
                      instrumented + get("txrace.access.uninstrumented")),
                 "frac"});

    m.push_back({"sim.decode_ms", tracer.meanMs("sim.Machine"), "ms"});
    double hostMs = 0.0;
    for (int l = 0; l < kNumLanes; ++l) {
        const LaneHost &lane = tally.lanes[l];
        hostMs += lane.ms;
        m.push_back({std::string("sim.ns_per_step.") + laneName(Lane(l)),
                     frac(lane.ms * 1e6, double(lane.steps)), "ns"});
    }
    for (int l = 0; l < kNumLanes; ++l) {
        const LaneHost &lane = tally.lanes[l];
        m.push_back({std::string("core.run_ms.") + laneName(Lane(l)),
                     frac(lane.ms, double(lane.runs)), "ms"});
    }
    m.push_back({"core.host_frac.txrace",
                 frac(tally.lanes[kTxrace].ms, hostMs), "frac"});
    m.push_back({"sim.steps", sum("machine.steps"), "count"});
    m.push_back({"sim.rollbacks", sum("machine.rollbacks"), "count"});

    double begins = get("htm.begins");
    m.push_back({"htm.begins", begins, "count"});
    m.push_back({"htm.commit_frac", frac(get("htm.commits"), begins),
                 "frac"});
    m.push_back({"htm.aborts.conflict", get("htm.aborts.conflict"),
                 "count"});
    m.push_back({"htm.aborts.capacity", get("htm.aborts.capacity"),
                 "count"});
    m.push_back({"htm.aborts.unknown", get("htm.aborts.unknown"),
                 "count"});
    double probes = get("htm.dir.probes");
    double filtered = get("htm.dir.filter_hit");
    m.push_back({"htm.dir.probes", probes, "count"});
    m.push_back({"htm.dir.filter_hit_frac",
                 frac(filtered, filtered + probes), "frac"});

    double checks = sum("detector.reads") + sum("detector.writes");
    m.push_back({"detector.checks", checks, "count"});
    m.push_back({"detector.epoch_fast_frac",
                 frac(sum("detector.epoch_fast_hits"), checks), "frac"});
    m.push_back({"detector.replay_checks", sum("detector.replay_checks"),
                 "count"});

    m.push_back({"core.slow_regions", get("txrace.slow_regions"),
                 "count"});
    m.push_back({"core.window_replays", get("txrace.window.replays"),
                 "count"});
    m.push_back({"core.window_fallbacks", get("txrace.window.fallbacks"),
                 "count"});
    m.push_back({"core.loop_cuts", get("txrace.loop_cuts"), "count"});

    m.push_back({"budget.windows", get("budget.windows"), "count"});
    m.push_back({"budget.site_cuts", get("budget.site_cuts"), "count"});
    m.push_back({"budget.probes", get("budget.site_probes"), "count"});
    m.push_back({"budget.sampled_skips", get("budget.sampled_skips"),
                 "count"});
    m.push_back({"budget.gated_checks", get("budget.gated_checks"),
                 "count"});

    m.push_back({"telemetry.profile_ms",
                 tracer.meanMs("telemetry.buildRunProfile"), "ms"});

    m.push_back({"campaign.pool_busy_frac", extras.poolBusyFrac, "frac"});
    m.push_back({"campaign.steals", extras.steals, "count"});
    m.push_back({"campaign.dedup_ratio", extras.dedupRatio, "ratio"});
    m.push_back({"campaign.report_ms",
                 tracer.meanMs("campaign.writeCampaignJson"), "ms"});

    std::map<std::string, double> self = tracer.selfMsByLayer();
    for (const char *layer : {"bench", "workloads", "passes", "sim",
                              "core", "telemetry", "campaign"})
        m.push_back({std::string("self_ms.") + layer, self[layer], "ms"});
    m.push_back({"trace.overhead", extras.traceOverhead, "ratio"});
}

void
finish(Report &report, const Tally &tally)
{
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.failures = tally.failures;
    report.correct = tally.failed == 0 && tally.attempted > 0;
    report.digest = tally.digest.value();
    report.info.push_back({"false_positives",
                           double(tally.falsePositives), "count"});
    report.info.push_back(
        {"failed_frac",
         tally.attempted ? double(tally.failed) / double(tally.attempted)
                         : 0.0,
         "frac"});
}

} // namespace perfbench
