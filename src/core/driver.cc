#include "core/driver.hh"

#include <functional>

#include "core/policies.hh"
#include "support/log.hh"

namespace txrace::core {

namespace {

/** Build the run's Machine over @p prog, run it under @p policy and
 *  package the outcome — cost, buckets, the detector's races and the
 *  telemetry — into @p result. @p finish runs just before the
 *  telemetry moves out of the machine. Policies that report races
 *  of their own overwrite result.races afterwards. */
void
runMachine(const ir::Program &prog, const sim::MachineConfig &mcfg,
           sim::ExecutionPolicy &policy, RunResult &result,
           const std::function<void(sim::Machine &)> &finish = {})
{
    sim::Machine machine(prog, mcfg, policy);
    result.error = machine.run();
    result.totalCost = machine.totalCost();
    result.buckets = machine.buckets();
    result.races = machine.det().races();
    if (finish)
        finish(machine);
    result.telemetry = std::move(machine.tel());
}

} // namespace

RunResult
runProgram(const ir::Program &prog, const RunConfig &cfg)
{
    if (!prog.finalized())
        fatal("runProgram: program not finalized");

    RunResult result;
    result.mode = cfg.mode;

    switch (cfg.mode) {
      case RunMode::Native: {
        NativePolicy policy;
        runMachine(prog, cfg.machine, policy, result);
        break;
      }

      case RunMode::Eraser: {
        ir::Program prepared = passes::preparedForTSan(prog);
        EraserPolicy policy;
        runMachine(prepared, cfg.machine, policy, result);
        result.races = policy.lockset().races();
        break;
      }

      case RunMode::RaceTM: {
        // RaceTM needs the transactionalized program (it uses the
        // same region markers). The elision pipeline stays off:
        // RaceTM detects races from raw HTM conflicts, and its
        // comparison point is the paper's unmodified instrumentation.
        passes::PassConfig pass_cfg = cfg.passes;
        pass_cfg.elide.enabled = false;
        ir::Program prepared =
            passes::preparedForTxRace(prog, pass_cfg);
        RaceTmPolicy policy;
        runMachine(prepared, cfg.machine, policy, result);
        result.races = policy.races();
        break;
      }

      case RunMode::TSan:
      case RunMode::TSanSampling: {
        double rate =
            cfg.mode == RunMode::TSan ? 1.0 : cfg.sampleRate;
        ir::Program prepared = passes::preparedForTSan(prog);
        TsanPolicy policy(rate, cfg.machine.seed ^ 0x7a57eULL);
        runMachine(prepared, cfg.machine, policy, result);
        break;
      }

      case RunMode::TxRaceNoOpt:
      case RunMode::TxRaceDynLoopcut:
      case RunMode::TxRaceProfLoopcut: {
        passes::PassConfig pass_cfg = cfg.passes;
        if (cfg.mode == RunMode::TxRaceNoOpt)
            pass_cfg.insertLoopCuts = false;
        passes::ElisionStats elision;
        ir::Program prepared =
            passes::preparedForTxRace(prog, pass_cfg, &elision);

        LoopCutTable profiled;
        const bool prof = cfg.mode == RunMode::TxRaceProfLoopcut;
        if (prof) {
            // Offline profiling run on a "representative input"
            // (perturbed seed): learn thresholds the Dyn way, keep
            // only the table. Profiling cost is not part of the
            // measured run, as in the paper.
            RunConfig prof_run = cfg;
            prof_run.mode = RunMode::TxRaceDynLoopcut;
            prof_run.governor = {};
            prof_run.budget = {};
            TxRacePolicy profiler(prof_run);
            sim::MachineConfig prof_cfg = cfg.machine;
            prof_cfg.seed ^= kProfileSeedDelta;
            sim::Machine machine(prepared, prof_cfg, profiler);
            machine.run();
            profiled = profiler.loopcuts();
        }

        TxRacePolicy policy(cfg, prof ? &profiled : nullptr);
        runMachine(prepared, cfg.machine, policy, result,
                   [&](sim::Machine &m) {
            // Static-elision accounting.
            auto &reg = m.tel().registry;
            reg.addNamed("pass.elide.candidates", elision.candidates);
            reg.addNamed("pass.elide.read_only", elision.readOnly);
            reg.addNamed("pass.elide.privatized", elision.privatized);
            reg.addNamed("pass.elide.locked", elision.locked);
            reg.addNamed("pass.elide.pre_spawn", elision.preSpawn);
            reg.addNamed("pass.elide.total", elision.elided());
            reg.addNamed("pass.elide.bare_regions", elision.bareRegions);
            for (const auto &[fn, n] : elision.perFunction)
                reg.addNamed("pass.elide.fn." + fn, n);
            result.budget = policy.budgetReport();
        });
        break;
      }
    }
    // One string-keyed snapshot of every counter and gauge the run
    // wrote: machine, HTM, detector, policy and passes alike.
    result.telemetry.registry.exportTo(result.stats);
    return result;
}

double
recallOf(const detector::RaceSet &tool,
         const detector::RaceSet &reference)
{
    if (reference.count() == 0)
        return 1.0;
    return static_cast<double>(tool.intersectCount(reference)) /
           static_cast<double>(reference.count());
}

} // namespace txrace::core
