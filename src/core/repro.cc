#include "core/repro.hh"

#include <cstdlib>
#include <sstream>

#include "core/fingerprint.hh"
#include "support/log.hh"

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
    for (SlowPathKind k : {SlowPathKind::Window, SlowPathKind::Region}) {
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
    d.u64(cfg.dynLoopcutInitial);
    d.u64(cfg.conflictAddressHints ? 1 : 0);
    d.u64(static_cast<uint64_t>(cfg.slowpath));
    d.u64(cfg.profileSeedDelta);

    const sim::MachineConfig &m = cfg.machine;
    d.u64(m.seed);
    d.u64(m.nCores);
    d.u64(m.hwThreads);
    d.f64(m.interruptPerStep);
    d.f64(m.oversubInterruptFactor);
    d.f64(m.retryAbortPerStep);
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
    d.u64(h.trackInstructions ? 1 : 0);
    // Former conflict-engine selector, pinned at Directory's value so
    // digests (and repro commands) from before its removal stay valid.
    d.u64(0);
    d.u64(h.accessFilter ? 1 : 0);
    d.u64(h.versionLog ? 1 : 0);
    d.u64(h.versionLogEntries);

    const detector::DetectorConfig &det = m.det;
    d.u64(det.maxShadowCells);
    d.u64(det.epochFastPath ? 1 : 0);

    d.u64(cfg.passes.smallRegionK);
    d.u64(cfg.passes.insertLoopCuts ? 1 : 0);
    d.u64(cfg.passes.removeUninstrumented ? 1 : 0);
    const passes::ElideConfig &e = cfg.passes.elide;
    d.u64(e.enabled ? 1 : 0);
    d.u64(e.dominance ? 1 : 0);
    d.u64(e.rawDowngrade ? 1 : 0);
    d.u64(e.privatize ? 1 : 0);

    const GovernorConfig &g = cfg.governor;
    d.u64(g.enabled ? 1 : 0);
    d.u64(g.maxBackoffRetries);
    d.u64(g.backoffBaseCost);
    d.u64(g.livelockK);
    d.u64(g.windowCost);
    d.u64(g.demoteAbortsPerWindow);
    d.u64(g.demoteSlowCostPerWindow);
    d.u64(g.reprobateAfterCost);
    d.u64(g.maxProbeBackoffExp);
    d.f64(g.sampleRate);

    const BudgetConfig &b = cfg.budget;
    d.u64(b.enabled ? 1 : 0);
    d.f64(b.budgetPct);
    d.u64(b.windowBase);
    d.f64(b.softFactor);
    d.u64(b.cutShift);
    d.u64(b.floorShift);
    d.u64(b.reprobeWindows);
    d.u64(b.maxProbeBackoffExp);
    d.u64(b.unsatisfiableWindows);

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
    std::ostringstream ss;
    ss << "txrace_run";
    switch (id.target) {
      case RunTarget::App:         ss << " --app ";     break;
      case RunTarget::Pattern:     ss << " --pattern "; break;
      case RunTarget::ProgramFile: ss << " --program "; break;
    }
    ss << id.name << " --mode " << id.mode;
    if (id.target == RunTarget::App)
        ss << " --workers " << id.workers << " --scale " << id.scale;
    ss << " --seed " << id.seed;
    if (!id.fault.empty()) {
        ss << " --fault " << id.fault;
        if (id.faultHorizon != 0)
            ss << " --fault-horizon " << id.faultHorizon;
    }
    if (id.governor)
        ss << " --governor";
    if (id.monitor) {
        ss << " --monitor";
        if (id.budgetPct != 5.0)
            ss << " --budget-pct " << id.budgetPct;
    }
    if (!id.elide)
        ss << " --no-elide";
    if (id.irqScale != 1.0)
        ss << " --irq-scale " << id.irqScale;
    if (!id.calibrated && id.target == RunTarget::App)
        ss << " --no-calibrate";
    if (id.slowpath == SlowPathKind::Region)
        ss << " --slowpath region";
    return ss.str();
}

std::vector<uint64_t>
parseSeedList(const std::string &list)
{
    std::vector<uint64_t> seeds;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string item = list.substr(pos, comma - pos);
        if (item.empty())
            fatal("--seed-list: empty entry in '%s'", list.c_str());
        char *end = nullptr;
        uint64_t seed = std::strtoull(item.c_str(), &end, 10);
        if (end == item.c_str() || *end != '\0')
            fatal("--seed-list: bad seed '%s'", item.c_str());
        seeds.push_back(seed);
        pos = comma + 1;
    }
    if (seeds.empty())
        fatal("--seed-list: no seeds given");
    return seeds;
}

} // namespace txrace::core
