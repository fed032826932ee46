#include "core/repro.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/fingerprint.hh"
#include "core/loopcut.hh"
#include "core/versionlog.hh"
#include "fault/fault.hh"
#include "support/log.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

namespace txrace::core {

namespace {

/** Digest accumulator: hash a tagged field stream so that field
 *  order matters and adjacent fields cannot alias. */
class Digest
{
  public:
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            step(static_cast<unsigned char>(v >> (8 * i)));
        step(0x5e);
    }

    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        __builtin_memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        for (unsigned char c : s)
            step(c);
        step(0x1f);
    }

    uint64_t value() const { return h_; }

  private:
    void
    step(unsigned char c)
    {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }

    uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::string
IdentityError::flagMessage(const char *appFlag) const
{
    return std::string(std::strcmp(flag, "--app") ? flag : appFlag) +
           (key ? " " : ": ") + reason;
}

IdentityError
identityError(const RunIdentity &id)
{
    if (id.target == RunTarget::App)
        if (IdentityError e = workloads::appParamsError(
                id.name, {id.workers, id.scale, id.calibrated}))
            return e;
    if (id.monitor && !isTxRaceMode(id.mode))
        return {"--monitor", "monitor", "requires a txrace mode"};
    if (!(id.budgetPct > 0.0))
        return {"--budget-pct", "budget_pct", "must be positive"};
    if (id.irqScale < 0.0)
        return {"--irq-scale", "irq_scale", "must not be negative"};
    if (!(id.sampleRate >= 0.0 && id.sampleRate <= 1.0))
        return {"--rate", "rate", "must be within [0, 1]"};
    if (!id.fault.empty() &&
        !std::ranges::count(fault::scenarioNames(), id.fault))
        return {"--fault", nullptr, "unknown scenario '" + id.fault + "'"};
    if (!id.fault.empty() && id.faultHorizon == 0)
        return {"--fault-horizon", "fault_horizon", "must be nonzero"};
    if (id.target == RunTarget::Pattern &&
        !std::ranges::count(workloads::patternNames(), id.name))
        return {"--pattern", nullptr, "unknown pattern '" + id.name + "'"};
    return {};
}

RunConfig
runConfigFor(const RunIdentity &id, const sim::MachineConfig &base)
{
    RunConfig cfg;
    cfg.mode = id.mode;
    cfg.sampleRate = id.sampleRate;
    cfg.machine = base;
    cfg.machine.seed = id.seed;
    cfg.machine.interruptPerStep *= id.irqScale;
    if (!id.fault.empty())
        cfg.machine.faults = fault::makeScenario(id.fault, id.faultHorizon);
    // Monitor mode composes the budget controller on top of the
    // ladder: the governor rides out storms, the budget caps what the
    // ride may cost.
    cfg.governor.enabled = id.governor || id.monitor;
    cfg.budget.enabled = id.monitor;
    if (id.monitor)
        cfg.budget.budgetPct = id.budgetPct;
    // Elision is static only; the differential soundness test
    // compares against exactly this configuration.
    cfg.passes.elide.enabled = id.elide;
    return cfg;
}

const char *
cliModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Native:            return "native";
      case RunMode::TSan:              return "tsan";
      case RunMode::TSanSampling:      return "sampling";
      case RunMode::Eraser:            return "eraser";
      case RunMode::RaceTM:            return "racetm";
      case RunMode::TxRaceNoOpt:       return "txrace-noopt";
      case RunMode::TxRaceDynLoopcut:  return "txrace-dyn";
      case RunMode::TxRaceProfLoopcut: return "txrace";
    }
    return "?";
}

bool
cliModeFromName(const std::string &name, RunMode &out)
{
    for (int m = 0; m <= int(RunMode::TxRaceProfLoopcut); ++m) {
        if (name == cliModeName(RunMode(m))) {
            out = RunMode(m);
            return true;
        }
    }
    return false;
}

bool
slowPathKindFromName(const std::string &name, SlowPathKind &out)
{
    for (SlowPathKind k : {SlowPathKind::Replay, SlowPathKind::TxFail}) {
        if (name == slowPathKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

uint64_t
configDigest(const RunConfig &cfg)
{
    Digest d;
    d.u64(static_cast<uint64_t>(cfg.mode));
    // Inert outside TSanSampling; hashing it anyway would make the
    // digest disagree between front ends that default it differently.
    d.f64(cfg.mode == RunMode::TSanSampling ? cfg.sampleRate : 1.0);
    d.u64(LoopCutTable::kDynInitial);
    // Former conflict-address hint switch, off on every front end.
    d.u64(0);
    d.u64(static_cast<uint64_t>(cfg.slowpath));
    d.u64(kProfileSeedDelta);

    const sim::MachineConfig &m = cfg.machine;
    d.u64(m.seed);
    // Former core count, now Machine::kCores.
    d.u64(sim::Machine::kCores);
    // Former hardware-thread count, which the machine copied over
    // htm.maxConcurrentTx; the one field left hashes in both slots.
    d.u64(m.htm.maxConcurrentTx);
    d.f64(m.interruptPerStep);
    // Former oversubscription factor, now a Machine constant, and
    // former retry-abort rate, 0 on every front end (retry glitches
    // come from the fault plan, hashed below).
    d.f64(sim::Machine::kOversubInterruptFactor);
    d.f64(0.0);
    d.u64(m.maxSteps);

    const sim::CostModel &c = m.cost;
    d.u64(c.loadCost);
    d.u64(c.storeCost);
    d.u64(c.syncCost);
    d.u64(c.syscallCost);
    d.u64(c.threadOpCost);
    d.u64(c.txBeginCost);
    d.u64(c.txEndCost);
    d.u64(c.fastHookCost);
    d.u64(c.syncTrackCost);
    d.u64(c.checkCost);
    d.f64(c.checkScale);
    d.u64(c.windowReplaySetupCost);

    const htm::HtmConfig &h = m.htm;
    d.u64(h.l1Sets);
    d.u64(h.l1Ways);
    d.u64(h.readSetMaxLines);
    d.u64(h.maxConcurrentTx);
    d.f64(h.capacityJitter);
    // Former RaceTM debug-bit switch, never set on a RunConfig (the
    // driver set it on its own copy): pinned at 0.
    d.u64(0);
    // Former conflict-engine selector, pinned at Directory's value so
    // digests (and repro commands) from before its removal stay valid.
    d.u64(0);
    // Former owned-line filter switch. Every CLI path set it together
    // with the elision passes, so hashing elide.enabled in its place
    // keeps every digest (--no-elide included) valid.
    d.u64(cfg.passes.elide.enabled ? 1 : 0);
    // Former version-log switch and ring bound, kept the same way:
    // the switch was only ever set on the driver's copy, and the
    // bound is now VersionLog::kRingEntries.
    d.u64(0);
    d.u64(VersionLog::kRingEntries);

    const detector::DetectorConfig &det = m.det;
    d.u64(det.maxShadowCells);
    // Former same-epoch fast-path switch, kept the same way.
    d.u64(cfg.passes.elide.enabled ? 1 : 0);

    // Former fields, now constants, keep their places so digests (and
    // repro commands) stay valid; retired always-on switches hash 1.
    d.u64(passes::kSmallRegionK);
    d.u64(cfg.passes.insertLoopCuts ? 1 : 0);
    d.u64(1);
    d.u64(cfg.passes.elide.enabled ? 1 : 0);
    d.u64(1);  // former dominance pass
    d.u64(1);  // former read-after-write downgrade
    d.u64(1);

    using Gov = FallbackGovernor;
    using Budget = BudgetController;
    d.u64(cfg.governor.enabled ? 1 : 0);
    d.u64(Gov::kMaxBackoffRetries);
    d.u64(Gov::kBackoffCost);
    d.u64(Gov::kLivelockK);
    d.u64(Gov::kWindowCost);
    d.u64(Gov::kDemoteAbortsPerWindow);
    d.u64(Gov::kDemoteSlowCostPerWindow);
    d.u64(Gov::kReprobateAfterCost);
    d.u64(Gov::kMaxProbeBackoffExp);
    d.f64(Gov::kSampleRate);

    d.u64(cfg.budget.enabled ? 1 : 0);
    d.f64(cfg.budget.budgetPct);
    d.u64(Budget::kWindowBase);
    d.f64(Budget::kSoftFactor);
    d.u64(Budget::kCutShift);
    d.u64(Budget::kFloorShift);
    d.u64(Budget::kReprobeWindows);
    d.u64(Budget::kMaxProbeBackoffExp);
    d.u64(Budget::kUnsatisfiableWindows);

    const fault::FaultPlan &plan = m.faults;
    d.str(plan.name);
    d.u64(plan.episodes.size());
    for (const fault::FaultEpisode &ep : plan.episodes) {
        d.u64(static_cast<uint64_t>(ep.kind));
        d.u64(ep.start);
        d.u64(ep.duration);
        d.f64(ep.magnitude);
        d.f64(ep.addProb);
        d.u64(ep.param);
    }
    return d.value();
}

std::string
reproCommand(const RunIdentity &id)
{
    const RunIdentity def;
    auto exact = [](double v) {
        char buf[32];
        return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    };
    std::ostringstream ss;
    ss << "txrace_run";
    switch (id.target) {
      case RunTarget::App:         ss << " --app ";     break;
      case RunTarget::Pattern:     ss << " --pattern "; break;
      case RunTarget::ProgramFile: ss << " --program "; break;
    }
    ss << id.name << " --mode " << cliModeName(id.mode);
    if (id.target == RunTarget::App)
        ss << " --workers " << id.workers << " --scale " << id.scale;
    ss << " --seed " << id.seed;
    if (id.mode == RunMode::TSanSampling && id.sampleRate != def.sampleRate)
        ss << " --rate " << exact(id.sampleRate);
    if (!id.fault.empty())
        ss << " --fault " << id.fault << " --fault-horizon "
           << id.faultHorizon;
    if (id.governor)
        ss << " --governor";
    if (id.monitor) {
        ss << " --monitor";
        if (id.budgetPct != def.budgetPct)
            ss << " --budget-pct " << exact(id.budgetPct);
    }
    if (!id.elide)
        ss << " --no-elide";
    if (id.irqScale != def.irqScale)
        ss << " --irq-scale " << exact(id.irqScale);
    if (!id.calibrated && id.target == RunTarget::App)
        ss << " --no-calibrate";
    return ss.str();
}

const char *
flagValue(const std::vector<std::string> &args, size_t &i,
          const char *flag)
{
    // Both `--flag value` and `--flag=value` spellings work.
    if (args[i].starts_with(std::string(flag) + '='))
        return args[i].c_str() + std::strlen(flag) + 1;
    if (args[i] != flag)
        return nullptr;
    if (i + 1 >= args.size())
        fatal("%s needs a value", flag);
    return args[++i].c_str();
}

RunIdentity
parseRunCommand(const std::vector<std::string> &args,
                const std::function<bool(size_t &)> &other)
{
    RunIdentity id;
    bool budget_given = false;
    for (size_t i = 1; i < args.size(); ++i) {
        auto value = [&](const char *flag) {
            return flagValue(args, i, flag);
        };
        auto target = [&](RunTarget t, const char *name) {
            if (!id.name.empty() && id.target != t)
                fatal("--app, --program and --pattern are mutually "
                      "exclusive");
            id.target = t;
            id.name = name;
        };
        if (const char *v = value("--app")) {
            target(RunTarget::App, v);
        } else if (const char *vp = value("--program")) {
            target(RunTarget::ProgramFile, vp);
        } else if (const char *vn = value("--pattern")) {
            target(RunTarget::Pattern, vn);
        } else if (const char *v2 = value("--mode")) {
            id.mode = parseModeFlag(v2);
        } else if (const char *v3 = value("--workers")) {
            id.workers = uint32_t(
                parseUnsignedFlag("--workers", v3, 0, UINT32_MAX));
        } else if (const char *v4 = value("--scale")) {
            id.scale = parseUnsignedFlag("--scale", v4, 1);
        } else if (const char *v5 = value("--seed")) {
            id.seed = parseUnsignedFlag("--seed", v5);
        } else if (const char *vis = value("--irq-scale")) {
            id.irqScale = parseDoubleFlag("--irq-scale", vis);
        } else if (const char *v6 = value("--rate")) {
            id.sampleRate = parseDoubleFlag("--rate", v6);
        } else if (const char *v8 = value("--fault")) {
            id.fault = v8;
        } else if (const char *v9 = value("--fault-horizon")) {
            id.faultHorizon = parseUnsignedFlag("--fault-horizon", v9);
        } else if (args[i] == "--governor") {
            id.governor = true;
        } else if (args[i] == "--monitor") {
            id.monitor = true;
        } else if (const char *vb = value("--budget-pct")) {
            id.budgetPct = parseDoubleFlag("--budget-pct", vb);
            budget_given = true;
        } else if (args[i] == "--no-elide") {
            id.elide = false;
        } else if (args[i] == "--no-calibrate") {
            id.calibrated = false;
        } else if (!other(i)) {
            fatal("unknown option '%s' (try --help)", args[i].c_str());
        }
    }
    if (budget_given && !id.monitor)
        fatal("--budget-pct requires --monitor");
    if (const IdentityError e = id.name.empty() ? IdentityError{}
                                                : identityError(id))
        fatal("%s", e.flagMessage().c_str());
    return id;
}

uint64_t
parseUnsignedFlag(const char *flag, const std::string &text,
                  uint64_t min, uint64_t max)
{
    errno = 0;
    char *end = nullptr;
    uint64_t v = std::strtoull(text.c_str(), &end, 10);
    // strtoull skips leading blanks and accepts a sign (negating "-1"
    // into 2^64-1), so the text must start with a digit.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0')
        fatal("%s: expected an unsigned integer, got '%s'", flag,
              text.c_str());
    if (errno == ERANGE || v < min || v > max)
        fatal("%s: '%s' is out of range [%" PRIu64 ", %" PRIu64 "]",
              flag, text.c_str(), min, max);
    return v;
}

RunMode
parseModeFlag(const std::string &text)
{
    RunMode mode = RunMode::TxRaceProfLoopcut;
    if (text != "txrace-prof" && !cliModeFromName(text, mode))
        fatal("unknown mode '%s' (native, tsan, sampling, eraser, "
              "racetm, txrace, txrace-dyn, txrace-noopt)",
              text.c_str());
    return mode;
}

double
parseDoubleFlag(const char *flag, const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        fatal("%s: expected a number, got '%s'", flag, text.c_str());
    if (!std::isfinite(v))
        fatal("%s: '%s' is out of range", flag, text.c_str());
    return v;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> items;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        items.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return items;
}

std::vector<uint64_t>
parseSeedList(const std::string &list)
{
    std::vector<uint64_t> seeds;
    for (const std::string &item : splitCommas(list))
        seeds.push_back(parseUnsignedFlag("--seed-list", item));
    return seeds;
}

std::ostream &
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return std::cout;
    file.open(path);
    if (!file)
        fatal("cannot write %s", path.c_str());
    return file;
}

} // namespace txrace::core
