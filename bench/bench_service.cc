/**
 * @file
 * Service-layer microbenchmarks: what the fleet hunting service pays
 * to fold outcomes into the aggregator and to serialize/parse/union
 * the persistent findings store and checkpoint.
 *
 * `bench_compare.py` regresses every lane against the committed
 * baseline, normalized by the BM_ServiceIngest anchor.
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "core/fingerprint.hh"
#include "service/checkpoint.hh"
#include "service/store.hh"
#include "telemetry/json.hh"
#include "telemetry/jsonparse.hh"

using namespace txrace;
using namespace txrace::campaign;

namespace {

core::RaceSig
sig(const std::string &key)
{
    core::RaceSig s;
    s.hash = core::fnv1a64(key);
    s.key = key;
    s.label = key;
    s.a = "a:" + key;
    s.b = "b:" + key;
    return s;
}

/**
 * A synthetic campaign's worth of outcomes: @p jobs jobs across 8
 * apps, each reporting 2-3 races drawn from a pool of @p keys
 * distinct fingerprints. Heavy key reuse (the realistic case — a
 * fleet rediscovers the same races all day) exercises the dedup path
 * rather than map growth.
 */
std::vector<JobOutcome>
syntheticOutcomes(uint64_t jobs, uint64_t keys, uint64_t idBase = 0)
{
    std::vector<JobOutcome> out;
    out.reserve(jobs);
    for (uint64_t i = 0; i < jobs; ++i) {
        const uint64_t id = idBase + i;
        JobOutcome o;
        o.spec.id = id;
        o.spec.run.name = "app" + std::to_string(id % 8);
        o.spec.run.seed = 1000 + id;
        o.repro = "txrace_run --app " + o.spec.run.name;
        o.configDigest = 0xd1600 + id;
        o.txCommitted = 40 + id % 9;
        o.abortConflict = id % 5;
        FoundRace f;
        f.sig = sig(o.spec.run.name + "\x1dpair" +
                    std::to_string(id % keys));
        f.hits = 1 + id % 3;
        o.races.push_back(f);
        f.sig = sig(o.spec.run.name + "\x1dpair" +
                    std::to_string((id * 7 + 3) % keys));
        o.races.push_back(f);
        if (id % 2 == 0) {
            f.sig = sig(o.spec.run.name + "\x1dshared");
            f.hits = 2;
            o.races.push_back(f);
        }
        out.push_back(std::move(o));
    }
    return out;
}

CampaignConfig
identity()
{
    CampaignConfig cfg;
    cfg.apps = {"app0", "app1", "app2", "app3",
                "app4", "app5", "app6", "app7"};
    cfg.seedsPerApp = 8;
    cfg.masterSeed = 7;
    return cfg;
}

constexpr uint64_t kJobs = 512;
constexpr uint64_t kKeys = 64;

/** Single-thread fold of a fixed batch into one aggregator. */
void
BM_ServiceIngest(benchmark::State &state)
{
    const std::vector<JobOutcome> batch =
        syntheticOutcomes(kJobs, kKeys);
    for (auto _ : state) {
        Aggregator agg;
        for (const JobOutcome &o : batch)
            benchmark::DoNotOptimize(agg.add(o));
        benchmark::DoNotOptimize(agg.runs());
    }
    state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_ServiceIngest);

/** Serialize a populated findings store (the checkpoint hot half). */
void
BM_StoreSerialize(benchmark::State &state)
{
    service::FindingsStore store;
    store.campaign = identity();
    for (const JobOutcome &o : syntheticOutcomes(kJobs, kKeys))
        store.aggregate.add(o);
    for (auto _ : state) {
        std::ostringstream os;
        store.write(os);
        benchmark::DoNotOptimize(os.str().size());
    }
    state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_StoreSerialize);

/** Parse the same store back (resume and cross-host load path). */
void
BM_StoreParse(benchmark::State &state)
{
    service::FindingsStore store;
    store.campaign = identity();
    for (const JobOutcome &o : syntheticOutcomes(kJobs, kKeys))
        store.aggregate.add(o);
    std::ostringstream os;
    store.write(os);
    const std::string bytes = os.str();
    for (auto _ : state) {
        service::FindingsStore in;
        std::string error;
        if (!service::FindingsStore::parse(bytes, in, error))
            state.SkipWithError(error.c_str());
        benchmark::DoNotOptimize(in.aggregate.runs());
    }
    state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_StoreParse);

/** Cross-host union: merge two half-fleet stores. */
void
BM_StoreMerge(benchmark::State &state)
{
    service::FindingsStore a, b;
    a.campaign = b.campaign = identity();
    for (const JobOutcome &o : syntheticOutcomes(kJobs / 2, kKeys, 0))
        a.aggregate.add(o);
    for (const JobOutcome &o :
         syntheticOutcomes(kJobs / 2, kKeys, kJobs / 2))
        b.aggregate.add(o);
    for (auto _ : state) {
        service::FindingsStore total = a;
        std::string error;
        if (!total.merge(b, error))
            state.SkipWithError(error.c_str());
        benchmark::DoNotOptimize(total.aggregate.runs());
    }
    state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_StoreMerge);

/** Full checkpoint write+parse round trip (the cadence cost). */
void
BM_CheckpointRoundTrip(benchmark::State &state)
{
    service::Checkpoint ck;
    ck.campaign = identity();
    const std::vector<JobOutcome> batch =
        syntheticOutcomes(kJobs, kKeys);
    for (const JobOutcome &o : batch) {
        ck.aggregate.add(o);
        ck.history.push_back(service::OutcomeSummary::of(o));
    }
    ck.nextId = kJobs;
    ck.jobsTotal = kJobs;
    ck.roundsDone = 1;
    ck.strategyName = "sweep";
    ck.strategyState["done"] = 1;
    for (auto _ : state) {
        std::ostringstream os;
        ck.write(os);
        service::Checkpoint in;
        std::string error;
        if (!service::Checkpoint::parse(os.str(), in, error))
            state.SkipWithError(error.c_str());
        benchmark::DoNotOptimize(in.history.size());
    }
    state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_CheckpointRoundTrip);

} // namespace

/**
 * Entry point with one convenience over BENCHMARK_MAIN: `--json FILE`
 * expands to `--benchmark_out=FILE --benchmark_out_format=json`, the
 * spelling every other harness binary in bench/ uses.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    args.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            args.push_back("--benchmark_out=" +
                           std::string(argv[++i]));
            args.emplace_back("--benchmark_out_format=json");
        } else {
            args.push_back(std::move(a));
        }
    }
    std::vector<char *> cargs;
    cargs.reserve(args.size());
    for (std::string &a : args)
        cargs.push_back(a.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
