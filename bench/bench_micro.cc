/**
 * @file
 * google-benchmark microbenchmarks of the core substrates: HTM
 * engine conflict checking, vector-clock operations, FastTrack
 * shadow checks, and end-to-end interpreter throughput. These
 * measure the *simulator's* own performance (real wall-clock), not
 * virtual time — useful for keeping the experiment harnesses fast.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/driver.hh"
#include "detector/fasttrack.hh"
#include "htm/htm.hh"
#include "ir/builder.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

void
BM_HtmAccess(benchmark::State &state)
{
    htm::HtmEngine engine;
    engine.begin(0);
    engine.begin(1);
    Rng rng(7);
    uint64_t distinct_lines = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        ir::Addr addr = rng.below(distinct_lines) * 64;
        auto res = engine.access(0, addr, rng.chance(0.3));
        benchmark::DoNotOptimize(res.victims.data());
        if (res.selfCapacity) {
            engine.begin(0);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HtmAccess)->Arg(16)->Arg(256);

/**
 * Engine-level conflict-detection benchmarks. `bench_compare.py`
 * gates on these — the conflict-free cases measure the per-access
 * cost as a function of in-flight transaction count (the directory's
 * whole point is making it flat), and the conflict-heavy case
 * measures abort processing.
 */
void
BM_HtmDirConflictFree(benchmark::State &state)
{
    htm::HtmEngine engine;
    const uint32_t txs = static_cast<uint32_t>(state.range(0));
    for (Tid t = 0; t < txs; ++t)
        engine.begin(t);
    // Each in-flight transaction cycles a 3:1 read:write mix over its
    // own disjoint 32-line region — the footprint scale and store
    // ratio of a loop-cut transaction. No conflicts, no capacity
    // pressure, steady state after the first lap.
    constexpr uint64_t kLines = 32;
    Tid t = 0;
    uint64_t lap = 0;
    for (auto _ : state) {
        uint64_t line = (t + 1) * 4096 + lap;
        auto res = engine.access(t, line * 64, (lap & 3) == 3);
        benchmark::DoNotOptimize(res.selfCapacity);
        if (++t == txs) {
            t = 0;
            if (++lap == kLines)
                lap = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HtmDirConflictFree)->Arg(1)->Arg(4)->Arg(8);

void
runConflictHeavy(benchmark::State &state)
{
    htm::HtmConfig cfg;
    cfg.maxConcurrentTx = 8;
    htm::HtmEngine engine(cfg);
    constexpr Tid kReaders = 8;
    for (auto _ : state) {
        // Eight readers pile onto one line; a non-transactional write
        // then aborts all of them at once (requester-wins), and the
        // next round re-begins from empty slots.
        for (Tid t = 0; t < kReaders; ++t) {
            engine.begin(t);
            engine.access(t, 0x8000, false);
        }
        auto res = engine.access(99, 0x8000, true);
        benchmark::DoNotOptimize(res.victims.data());
    }
    state.SetItemsProcessed(state.iterations() * (kReaders + 1));
}

void
BM_HtmDirConflictHeavy(benchmark::State &state)
{
    runConflictHeavy(state);
}
BENCHMARK(BM_HtmDirConflictHeavy);

void
BM_VectorClockJoin(benchmark::State &state)
{
    detector::VectorClock a, b;
    for (Tid t = 0; t < static_cast<Tid>(state.range(0)); ++t) {
        a.set(t, t * 3 + 1);
        b.set(t, t * 5 + 2);
    }
    for (auto _ : state) {
        a.join(b);
        benchmark::DoNotOptimize(a.get(0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(16);

void
BM_FastTrackCheck(benchmark::State &state)
{
    detector::HbDetector det;
    det.rootThread(0);
    det.threadCreated(0, 1);
    Rng rng(11);
    for (auto _ : state) {
        ir::Addr addr = rng.below(4096) * 8;
        Tid t = static_cast<Tid>(rng.below(2));
        if (rng.chance(0.5))
            det.write(t, addr, 1);
        else
            det.read(t, addr, 2);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastTrackCheck);

/**
 * Concurrent readers of a shared set — swaptions' shape, where almost
 * every read lands on a granule that the other workers also read, so
 * the read state stays promoted (one entry per reader). Four threads
 * each read a run of random granules of a 64-granule set in turn;
 * every 4096 checks a barrier orders them and one thread writes a
 * shared granule (a phase update: no race, it clears that read set).
 */
void
BM_FastTrackSharedReads(benchmark::State &state)
{
    detector::HbDetector det;
    det.rootThread(0);
    const std::vector<Tid> workers = {1, 2, 3, 4};
    for (Tid t : workers)
        det.threadCreated(0, t);
    Rng rng(5);
    uint64_t i = 0;
    for (auto _ : state) {
        Tid t = workers[(i >> 4) & 3];  // runs of 16 checks per thread
        if ((i & 4095) == 4095) {
            det.barrierRelease(workers);
            det.write(t, rng.below(64) * 8, 9);
        } else {
            det.read(t, rng.below(64) * 8, 10 + (i & 7));
        }
        ++i;
    }
    benchmark::DoNotOptimize(det.counters().readVcPromoted);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastTrackSharedReads);

void
BM_EndToEndTxRace(benchmark::State &state)
{
    ir::ProgramBuilder b;
    ir::Addr table = b.alloc("t", 1024 * 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(50, [&] {
        b.loop(8, [&] {
            b.load(ir::AddrExpr::randomIn(table, 1024, 8));
            b.compute(2);
        });
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    uint64_t seed = 1;
    for (auto _ : state) {
        cfg.machine.seed = seed++;
        core::RunResult r = core::runProgram(prog, cfg);
        benchmark::DoNotOptimize(r.totalCost);
    }
    state.SetItemsProcessed(state.iterations() * 50 * 8 * 4);
}
BENCHMARK(BM_EndToEndTxRace);

/**
 * End-to-end elision gate: a redundancy-heavy workload (re-loads of
 * a shared cell nothing writes, granule-aligned per-thread slots,
 * tight line reuse) run with the static elision passes on vs off. The
 * gate in BENCH_elision.json holds the elided pipeline measurably
 * faster on the streams it targets.
 */
void
runEndToEndElide(benchmark::State &state, bool elide)
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("s", 64, 64);
    ir::Addr flag = b.alloc("flag", 64, 64);
    // Workers are tids 1..8; perThread indexes by tid, so slot 8
    // reaches slots + 8*64 + 8 — size for ten lines.
    ir::Addr slots = b.alloc("slots", 10 * 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(50, [&] {
        b.loop(8, [&] {
            b.load(ir::AddrExpr::absolute(shared));
            b.load(ir::AddrExpr::absolute(shared));
            b.load(ir::AddrExpr::absolute(shared));
            b.load(ir::AddrExpr::absolute(shared));
            b.store(ir::AddrExpr::perThread(slots, 64));
            b.load(ir::AddrExpr::perThread(slots, 64));
            b.store(ir::AddrExpr::perThread(slots, 64));
            // Contended flag: forces conflict aborts and therefore
            // slow-path episodes, where the never-written loads and
            // privatized slots save real detector work — eight
            // accesses, one surviving elision.
            b.store(ir::AddrExpr::absolute(flag));
            b.compute(2);
        });
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 8);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.passes.elide.enabled = elide;
    uint64_t seed = 1;
    for (auto _ : state) {
        cfg.machine.seed = seed++;
        core::RunResult r = core::runProgram(prog, cfg);
        benchmark::DoNotOptimize(r.totalCost);
    }
    state.SetItemsProcessed(state.iterations() * 50 * 8 * 8);
}

void
BM_EndToEndElide(benchmark::State &state)
{
    runEndToEndElide(state, true);
}
BENCHMARK(BM_EndToEndElide);

void
BM_EndToEndNoElide(benchmark::State &state)
{
    runEndToEndElide(state, false);
}
BENCHMARK(BM_EndToEndNoElide);

/**
 * Flight-recorder overhead gate on the apache-stream scenario: the
 * planted races mean every run takes the full pipeline including
 * race-time forensics capture, and the streaming access pattern puts
 * the recorder's masked store on the hottest path. The same-run ratio
 * gate in CI (bench_compare.py --ratio-fast BM_EndToEndFlightRec
 * --ratio-slow BM_EndToEndNoFlightRec --min-ratio 0.97) holds the
 * overhead ≤3%; the compiled-out build (TXRACE_FLIGHTREC=OFF) has no
 * ring sink at all.
 */
void
runEndToEndFlightRec(benchmark::State &state, bool flight)
{
    workloads::WorkloadParams params;
    params.calibrate = false;
    workloads::AppModel app =
        workloads::makeApp("apache-stream", params);
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine = app.machine;
    cfg.machine.recordFlight = flight;
    uint64_t seed = 1;
    for (auto _ : state) {
        cfg.machine.seed = seed++;
        core::RunResult r = core::runProgram(app.program, cfg);
        benchmark::DoNotOptimize(r.totalCost);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_EndToEndFlightRec(benchmark::State &state)
{
    runEndToEndFlightRec(state, true);
}
BENCHMARK(BM_EndToEndFlightRec);

void
BM_EndToEndNoFlightRec(benchmark::State &state)
{
    runEndToEndFlightRec(state, false);
}
BENCHMARK(BM_EndToEndNoFlightRec);

/**
 * Same gate on the reuse-heavy probe (the elision benchmark's
 * program): tight line reuse keeps per-access work minimal, which is
 * the worst case for a per-access recorder — any overhead shows up
 * largest here.
 */
void
runReuseFlightRec(benchmark::State &state, bool flight)
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("s", 64, 64);
    ir::Addr slots = b.alloc("slots", 10 * 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(50, [&] {
        b.loop(8, [&] {
            b.load(ir::AddrExpr::absolute(shared));
            b.load(ir::AddrExpr::absolute(shared));
            b.store(ir::AddrExpr::perThread(slots, 64));
            b.load(ir::AddrExpr::perThread(slots, 64));
            b.compute(2);
        });
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 8);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();

    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine.recordFlight = flight;
    uint64_t seed = 1;
    for (auto _ : state) {
        cfg.machine.seed = seed++;
        core::RunResult r = core::runProgram(prog, cfg);
        benchmark::DoNotOptimize(r.totalCost);
    }
    state.SetItemsProcessed(state.iterations() * 50 * 8 * 8);
}

void
BM_ReuseFlightRec(benchmark::State &state)
{
    runReuseFlightRec(state, true);
}
BENCHMARK(BM_ReuseFlightRec);

void
BM_ReuseNoFlightRec(benchmark::State &state)
{
    runReuseFlightRec(state, false);
}
BENCHMARK(BM_ReuseNoFlightRec);

/**
 * Calibration gate: a calibrated makeApp of the 14 Table-1 apps (4
 * workers, scale 16, the perfbench table1 set-up), which tallies each
 * thread's op stream (sim::tallyProgram) and runs no machine, against
 * the same builds plus the full TSan run at the calibration seed that
 * the same solve could read instead. Both sides build every model.
 * The same-run ratio gate in CI (bench_compare.py --ratio-fast
 * BM_CalibrateRegistry --ratio-slow BM_TsanProbeRegistry --min-ratio
 * 9, about half the lowest of five runs on a 4-vCPU host, which read
 * 18.7x-20.4x) holds the tally's speed-up.
 */
workloads::WorkloadParams
registryGateParams(bool calibrate)
{
    workloads::WorkloadParams params;
    params.nWorkers = 4;
    params.scale = 16;
    params.calibrate = calibrate;
    return params;
}

void
BM_CalibrateRegistry(benchmark::State &state)
{
    const auto params = registryGateParams(true);
    for (auto _ : state) {
        for (const std::string &name : workloads::appNames()) {
            workloads::AppModel app = workloads::makeApp(name, params);
            benchmark::DoNotOptimize(app.machine.cost.checkScale);
        }
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(workloads::appNames().size()));
}
BENCHMARK(BM_CalibrateRegistry);

void
BM_TsanProbeRegistry(benchmark::State &state)
{
    const auto params = registryGateParams(false);
    for (auto _ : state) {
        for (const std::string &name : workloads::appNames()) {
            workloads::AppModel app = workloads::makeApp(name, params);
            core::RunConfig cfg;
            cfg.mode = core::RunMode::TSan;
            cfg.machine = app.machine;
            cfg.machine.seed = 0xCA11Bull;
            cfg.machine.cost.checkScale = 1.0;
            core::RunResult r = core::runProgram(app.program, cfg);
            benchmark::DoNotOptimize(r.totalCost);
        }
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(workloads::appNames().size()));
}
BENCHMARK(BM_TsanProbeRegistry);

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
