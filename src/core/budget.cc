#include "core/budget.hh"

#include <algorithm>

#include "support/log.hh"
#include "support/rng.hh"

namespace txrace::core {

using sim::Bucket;
using sim::Machine;

BudgetController::BudgetController(const BudgetConfig &cfg,
                                   uint64_t seed)
    : cfg_(cfg), seed_([&] {
          uint64_t s = seed ^ 0xb0d6e7bab1eULL;
          return splitmix64(s);
      }())
{
    double hard =
        cfg_.budgetPct / 100.0 * static_cast<double>(kWindowBase);
    hardAllowed_ = static_cast<uint64_t>(hard);
    softAllowed_ = static_cast<uint64_t>(hard * kSoftFactor);
}

void
BudgetController::bindMetrics(telemetry::MetricRegistry &reg)
{
    reg_ = &reg;
    met_.windows = reg.counter("budget.windows");
    met_.windowsOver = reg.counter("budget.windows_over");
    met_.windowsSoftOver = reg.counter("budget.windows_soft_over");
    met_.gatedRegions = reg.counter("budget.gated_regions");
    met_.gatedChecks = reg.counter("budget.gated_checks");
    met_.sampledSkips = reg.counter("budget.sampled_skips");
    met_.siteCuts = reg.counter("budget.site_cuts");
    met_.siteProbes = reg.counter("budget.site_probes");
    met_.probeFailures = reg.counter("budget.probe_failures");
}

uint64_t
BudgetController::baseNow(const Machine &m) const
{
    return m.buckets()[static_cast<size_t>(Bucket::Base)];
}

uint64_t
BudgetController::overheadNow(const Machine &m) const
{
    // Every non-Base bucket is detection overhead; rollback
    // reclassification keeps Base equal to the native run's spend.
    uint64_t base = baseNow(m);
    uint64_t total = m.totalCost();
    return total >= base ? total - base : 0;
}

void
BudgetController::onRunStart(Machine &m)
{
    windowStartBase_ = baseNow(m);
    windowStartOverhead_ = overheadNow(m);
}

void
BudgetController::rollWindows(Machine &m)
{
    // Rollbacks can retroactively move Base cost into an abort bucket,
    // so the base clock may briefly read behind the window start;
    // windows only close on forward crossings.
    while (baseNow(m) >= windowStartBase_ + kWindowBase)
        closeWindow(m, windowStartBase_ + kWindowBase);
}

void
BudgetController::closeWindow(Machine &m, uint64_t base_end)
{
    uint64_t oh_now = overheadNow(m);
    uint64_t oh = oh_now >= windowStartOverhead_
        ? oh_now - windowStartOverhead_
        : 0;
    BudgetWindow w;
    w.base = kWindowBase;
    w.overhead = oh;
    w.hardOver = oh > hardAllowed_;
    w.refused = windowRefused_;
    windows_.push_back(w);
    count(met_.windows);
    if (w.hardOver)
        count(met_.windowsOver);
    bool soft_over = oh > softAllowed_;
    if (soft_over)
        count(met_.windowsSoftOver);

    // Unsatisfiable: the budget is blown hard for several windows in
    // a row even while admission is refusing everything it can — the
    // floor of un-gateable overhead (sync tracking, in-flight
    // regions) alone exceeds the budget. Fail structurally instead of
    // thrashing forever.
    if (w.hardOver && w.refused) {
        if (++consecUnsat_ >= kUnsatisfiableWindows)
            unsatisfiable_ = true;
    } else {
        consecUnsat_ = 0;
    }

    ++windowIndex_;
    if (soft_over) {
        // Cut the sites that dominated this window's attributed
        // spend, deepest spender first, until the excess is covered.
        uint64_t excess = oh - softAllowed_;
        std::vector<std::pair<ir::InstrId, uint64_t>> spenders;
        for (const auto &[site, s] : sites_)
            if (s.windowCost > 0 && s.shift < kFloorShift)
                spenders.emplace_back(site, s.windowCost);
        std::sort(spenders.begin(), spenders.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
        uint64_t covered = 0;
        for (const auto &[site, cost] : spenders) {
            SiteState &s = sites_[site];
            if (s.probing) {
                s.probing = false;
                s.probeBackoffExp =
                    std::min(s.probeBackoffExp + 1, kMaxProbeBackoffExp);
                count(met_.probeFailures);
            }
            s.shift = std::min(s.shift + kCutShift, kFloorShift);
            s.everCut = true;
            s.nextProbeWindow = windowIndex_ + (uint64_t{kReprobeWindows}
                                                << s.probeBackoffExp);
            count(met_.siteCuts);
            m.tel().flight.note(0, telemetry::FrKind::Control,
                                m.currentStep(), site, s.shift,
                                telemetry::FrControl::BudgetCut);
            covered += cost;
            if (covered >= excess)
                break;
        }
    } else {
        // Clean window: probes that survived it succeed, and due
        // sites climb one step back toward full instrumentation.
        for (auto &[site, s] : sites_) {
            if (s.probing) {
                s.probing = false;
                s.probeBackoffExp = 0;
            }
            if (s.shift > 0 && windowIndex_ >= s.nextProbeWindow) {
                --s.shift;
                s.probing = true;
                s.nextProbeWindow = windowIndex_ + kReprobeWindows;
                count(met_.siteProbes);
                m.tel().flight.note(0, telemetry::FrKind::Control,
                                    m.currentStep(), site, s.shift,
                                    telemetry::FrControl::BudgetProbe);
            }
        }
    }

    for (auto &[site, s] : sites_)
        s.windowCost = 0;
    windowStartBase_ = base_end;
    windowStartOverhead_ = oh_now;
    windowRefused_ = false;
    pressure_ = soft_over;
}

bool
BudgetController::admitRegion(Machine &m, Tid t, uint64_t cost)
{
    (void)t;
    if (!cfg_.enabled)
        return true;
    rollWindows(m);
    uint64_t spent = overheadNow(m) - windowStartOverhead_;
    if (spent >= softAllowed_ || spent + cost > softAllowed_) {
        pressure_ = true;
        windowRefused_ = true;
        count(met_.gatedRegions);
        return false;
    }
    return true;
}

bool
BudgetController::admitCheck(Machine &m, Tid t, ir::InstrId site,
                             uint64_t cost)
{
    (void)t;
    if (!cfg_.enabled)
        return true;
    rollWindows(m);
    uint64_t spent = overheadNow(m) - windowStartOverhead_;
    if (spent >= softAllowed_ || spent + cost > softAllowed_) {
        pressure_ = true;
        windowRefused_ = true;
        count(met_.gatedChecks);
        return false;
    }
    SiteState &s = sites_[site];
    if (s.shift == 0)
        return true;
    if (!sampleDraw(s, site)) {
        count(met_.sampledSkips);
        return false;
    }
    return true;
}

bool
BudgetController::sampleDraw(SiteState &s, ir::InstrId site)
{
    ++s.draws;
    uint64_t state = seed_ ^
                     (0x9e3779b97f4a7c15ULL * (site + 1)) ^
                     (0xbf58476d1ce4e5b9ULL * s.draws);
    uint64_t h = splitmix64(state);
    return (h & ((1ULL << s.shift) - 1)) == 0;
}

void
BudgetController::chargeSite(ir::InstrId site, uint64_t cost)
{
    if (!cfg_.enabled || site == ir::kNoInstr)
        return;
    sites_[site].windowCost += cost;
}

uint32_t
BudgetController::siteShift(ir::InstrId site) const
{
    auto it = sites_.find(site);
    return it != sites_.end() ? it->second.shift : 0;
}

BudgetReport
BudgetController::report() const
{
    BudgetReport r;
    r.enabled = cfg_.enabled;
    r.budgetPct = cfg_.budgetPct;
    r.windowBase = kWindowBase;
    r.windows = windows_;
    for (const auto &[site, s] : sites_)
        if (s.everCut)
            r.siteShifts.emplace_back(site, s.shift);
    r.gatedRegions = reg_->value(met_.gatedRegions);
    r.gatedChecks = reg_->value(met_.gatedChecks);
    r.sampledSkips = reg_->value(met_.sampledSkips);
    r.siteCuts = reg_->value(met_.siteCuts);
    r.siteProbes = reg_->value(met_.siteProbes);
    return r;
}

} // namespace txrace::core
