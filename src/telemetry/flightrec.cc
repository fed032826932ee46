#include "flightrec.hh"

#include <algorithm>

namespace txrace::telemetry {

const char *
frKindName(FrKind kind)
{
    switch (kind) {
      case FrKind::Access:    return "access";
      case FrKind::TxBegin:   return "tx_begin";
      case FrKind::TxCommit:  return "tx_commit";
      case FrKind::TxAbort:   return "tx_abort";
      case FrKind::Sync:      return "sync";
      case FrKind::SlowEnter: return "slow_enter";
      case FrKind::SlowExit:  return "slow_exit";
      case FrKind::Gov:       return "gov";
      case FrKind::Budget:    return "budget";
      case FrKind::WindowReplay: return "window_replay";
      case FrKind::TxFailWrite: return "txfail_write";
      case FrKind::Control:   return "control";
      case FrKind::RunEdge:   return "run_edge";
    }
    return "?";
}

const char *
frAbortName(FrAbort reason)
{
    switch (reason) {
      case FrAbort::Conflict:  return "conflict";
      case FrAbort::TxFail:    return "txfail";
      case FrAbort::Capacity:  return "capacity";
      case FrAbort::Interrupt: return "interrupt";
      case FrAbort::Retry:     return "retry";
      case FrAbort::HwLimit:   return "hwlimit";
    }
    return "?";
}

const char *
frBudgetName(FrBudget detail)
{
    switch (detail) {
      case FrBudget::RegionGated:   return "region_gated";
      case FrBudget::CheckGated:    return "check_gated";
      case FrBudget::Unsatisfiable: return "unsatisfiable";
    }
    return "?";
}

std::vector<FrEvent>
FlightRecorder::window(uint32_t tid) const
{
    std::vector<FrEvent> out;
    if (tid >= rings_.size())
        return out;
    const Ring &r = rings_[tid];
    uint64_t kept = std::min<uint64_t>(r.n, kCapacity);
    out.reserve(kept);
    for (uint64_t i = r.n - kept; i < r.n; ++i)
        out.push_back(r.ev[i & (kCapacity - 1)]);
    return out;
}

void
FlightRecorder::append(const FrEntry &entry)
{
    if (timeline_.size() >= kTimelineCap) {
        if (dropped_++ == 0)
            firstDropped_ = entry;
        return;
    }
    timeline_.push_back(entry);
}

void
FlightRecorder::clear()
{
    for (Ring &r : rings_) {
        r.ev.fill(FrEvent{});
        r.n = 0;
    }
    timeline_.clear();
    dropped_ = 0;
}

ForensicsThread
drainThread(const FlightRecorder &rec, uint32_t tid)
{
    ForensicsThread t;
    t.tid = tid;
    t.window = rec.window(tid);
    for (const FrEvent &e : t.window) {
        if (e.kind() != FrKind::Access)
            continue;
        auto &set = e.isWrite() ? t.writeGranules : t.readGranules;
        set.push_back(e.arg);
    }
    auto uniq = [](std::vector<uint64_t> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    uniq(t.readGranules);
    uniq(t.writeGranules);
    return t;
}

std::vector<ForensicsWrite>
lastWriterChain(const std::vector<ForensicsThread> &threads,
                uint64_t granule, size_t limit)
{
    std::vector<ForensicsWrite> chain;
    for (const ForensicsThread &t : threads)
        for (const FrEvent &e : t.window)
            if (e.kind() == FrKind::Access && e.isWrite() &&
                e.arg == granule)
                chain.push_back(
                    ForensicsWrite{e.step, t.tid, e.site(), e.arg});
    // Step order; ties broken by tid so the chain is deterministic even
    // if two threads touched the granule on the same scheduler step.
    std::sort(chain.begin(), chain.end(),
              [](const ForensicsWrite &a, const ForensicsWrite &b) {
                  if (a.step != b.step)
                      return a.step < b.step;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.site < b.site;
              });
    if (chain.size() > limit)
        chain.erase(chain.begin(), chain.end() - limit);
    return chain;
}

} // namespace txrace::telemetry
