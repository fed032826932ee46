/**
 * @file
 * Simulator step-loop benchmarks: wall-clock steps/sec of the decoded
 * quantum loop on three probes:
 *
 *  - compute-bound: uncontended arithmetic and thread-local memory,
 *    the case quantum batching and the inline simple ops target.
 *  - sync-heavy: a tight lock/update/unlock loop. Every sync op is a
 *    forced preemption point, so this measures the O(1) runnable set
 *    and per-op dispatch rather than batching.
 *  - tx-heavy: the full TxRace pipeline (transactions, conflict
 *    detection, aborts), dominated by the HTM engine and detector.
 *  - native-app / tsan-app: the registry's apache-stream model at
 *    scale 4 with its own machine config, under the Native baseline
 *    and the TSan baseline — the lanes every overhead figure divides
 *    by and the calibration pays for.
 *  - txrace-app: the registry's vips model at scale 4 under
 *    txrace-dyn, the lane fleet hunting runs.
 *  - monitor-app: the apache-stream model under the production
 *    monitor as --monitor sets it up (txrace, governor, 5% budget).
 *
 * Every probe goes through core::runProgram, so it measures the lane
 * real runs take (registry interrupt rates included).
 *
 * Items/sec is scheduler steps/sec (actual steps executed, taken from
 * the run result), so the numbers compare across probes.
 *
 * BM_HostAnchor runs no simulator code at all: it is the host-speed
 * anchor the baseline gate normalizes by (scripts/bench_compare.py
 * --calibration BM_HostAnchor against the committed
 * BENCH_simcore.json), so a dispatch slowdown still shows after
 * normalization.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/driver.hh"
#include "ir/builder.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

/** Four workers doing mostly arithmetic with thread-local memory
 *  traffic: no sync beyond spawn/join, nothing transactional. */
ir::Program
computeProgram()
{
    ir::ProgramBuilder b;
    ir::Addr scratch = b.alloc("scratch", 6 * 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(400, [&] {
        b.compute(1);
        b.compute(2);
        b.compute(1);
        b.store(ir::AddrExpr::perThread(scratch, 64));
        b.compute(3);
        b.compute(1);
        b.compute(2);
        b.load(ir::AddrExpr::perThread(scratch, 64));
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    return b.build();
}

/** Four workers hammering one lock-protected counter: every
 *  iteration is acquire, read-modify-write, release. */
ir::Program
syncProgram()
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(250, [&] {
        b.lock(0);
        b.load(ir::AddrExpr::absolute(shared));
        b.store(ir::AddrExpr::absolute(shared));
        b.unlock(0);
        b.compute(2);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 4);
    b.joinAll();
    b.endFunction();
    return b.build();
}

/** Random shared-table traffic under the TxRace pipeline: plenty of
 *  transactions, conflicts, and aborts. */
ir::Program
txProgram()
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
    return b.build();
}

/** Run @p prog under @p cfg (seed varied per iteration) and count
 *  real steps/sec. */
void
runConfig(benchmark::State &state, const ir::Program &prog,
          core::RunConfig cfg)
{
    uint64_t steps = 0;
    uint64_t seed = 1;
    for (auto _ : state) {
        cfg.machine.seed = seed++;
        core::RunResult r = core::runProgram(prog, cfg);
        benchmark::DoNotOptimize(r.totalCost);
        steps += r.error.stepsExecuted;
    }
    state.SetItemsProcessed(static_cast<int64_t>(steps));
}

/** runConfig under @p mode with machine config @p machine. */
void
runMode(benchmark::State &state, const ir::Program &prog,
        core::RunMode mode, const sim::MachineConfig &machine = {})
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine = machine;
    runConfig(state, prog, cfg);
}

/** The registry model @p name at scale 4 (calibrated, like every
 *  registry run). */
workloads::AppModel
scaledApp(const char *name)
{
    workloads::WorkloadParams params;
    params.scale = 4;
    return workloads::makeApp(name, params);
}

const workloads::AppModel &
streamApp()
{
    static const workloads::AppModel app = scaledApp("apache-stream");
    return app;
}

void
BM_SimComputeDecoded(benchmark::State &state)
{
    runMode(state, computeProgram(), core::RunMode::Native);
}
BENCHMARK(BM_SimComputeDecoded);

void
BM_SimSyncDecoded(benchmark::State &state)
{
    runMode(state, syncProgram(), core::RunMode::Native);
}
BENCHMARK(BM_SimSyncDecoded);

void
BM_SimTxDecoded(benchmark::State &state)
{
    runMode(state, txProgram(), core::RunMode::TxRaceNoOpt);
}
BENCHMARK(BM_SimTxDecoded);

void
BM_SimNativeApp(benchmark::State &state)
{
    const workloads::AppModel &app = streamApp();
    runMode(state, app.program, core::RunMode::Native, app.machine);
}
BENCHMARK(BM_SimNativeApp);

void
BM_SimTsanApp(benchmark::State &state)
{
    const workloads::AppModel &app = streamApp();
    runMode(state, app.program, core::RunMode::TSan, app.machine);
}
BENCHMARK(BM_SimTsanApp);

void
BM_SimTxRaceApp(benchmark::State &state)
{
    static const workloads::AppModel app = scaledApp("vips");
    runMode(state, app.program, core::RunMode::TxRaceDynLoopcut,
            app.machine);
}
BENCHMARK(BM_SimTxRaceApp);

void
BM_SimMonitorApp(benchmark::State &state)
{
    const workloads::AppModel &app = streamApp();
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceProfLoopcut;
    cfg.machine = app.machine;
    cfg.governor.enabled = true;
    cfg.budget.enabled = true;
    cfg.budget.budgetPct = 5.0;
    runConfig(state, app.program, cfg);
}
BENCHMARK(BM_SimMonitorApp);

/** Host-speed anchor: a fixed mix of integer hashing, table loads and
 *  stores, and data-dependent branches over a 32 KiB table — the
 *  instruction mix of an interpreter loop, with no simulator code. */
void
BM_HostAnchor(benchmark::State &state)
{
    constexpr uint64_t kSlots = 4096;
    std::vector<uint64_t> table(kSlots, 0);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        for (uint64_t i = 0; i < kSlots; ++i) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t h = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
            h ^= h >> 31;
            table[h % kSlots] += h;
            if (h & 1)
                x ^= table[(h >> 20) % kSlots];
        }
        benchmark::DoNotOptimize(table.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kSlots));
}
BENCHMARK(BM_HostAnchor);

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
