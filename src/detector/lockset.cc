#include "detector/lockset.hh"

#include <algorithm>

#include "support/log.hh"

namespace txrace::detector {

void
LocksetDetector::lockAcquire(Tid t, uint64_t lock_id)
{
    held_[t].insert(lock_id);
}

void
LocksetDetector::lockRelease(Tid t, uint64_t lock_id)
{
    held_[t].erase(lock_id);
}

const std::set<uint64_t> &
LocksetDetector::heldBy(Tid t)
{
    return held_[t];
}

void
LocksetDetector::refine(Shadow &sh, Tid t)
{
    const std::set<uint64_t> &locks = held_[t];
    if (sh.universe) {
        sh.universe = false;
        sh.candidates = locks;
        return;
    }
    std::set<uint64_t> intersection;
    std::set_intersection(sh.candidates.begin(), sh.candidates.end(),
                          locks.begin(), locks.end(),
                          std::inserter(intersection,
                                        intersection.begin()));
    sh.candidates = std::move(intersection);
}

void
LocksetDetector::access(Tid t, ir::Addr addr, ir::InstrId instr,
                        bool is_write)
{
    if (is_write)
        ++counters_.writes;
    else
        ++counters_.reads;
    Shadow &sh = shadow_[mem::granuleOf(addr)];

    switch (sh.state) {
      case State::Virgin:
        sh.state = State::Exclusive;
        sh.owner = t;
        sh.lastInstr = instr;
        return;

      case State::Exclusive:
        if (sh.owner == t) {
            sh.lastInstr = instr;
            return;  // still thread-local: initialization is free
        }
        // Second thread arrives: start tracking candidate locks from
        // this access on (Eraser's initialization allowance).
        sh.state = is_write ? State::SharedModified : State::Shared;
        refine(sh, t);
        break;

      case State::Shared:
        if (is_write)
            sh.state = State::SharedModified;
        refine(sh, t);
        break;

      case State::SharedModified:
        refine(sh, t);
        break;
    }

    if (sh.state == State::SharedModified && !sh.universe &&
        sh.candidates.empty() && !sh.reported) {
        races_.record(sh.lastInstr == ir::kNoInstr ? instr
                                                   : sh.lastInstr,
                      instr, is_write ? RaceKind::WriteWrite
                                      : RaceKind::WriteRead,
                      addr);
        ++counters_.warnings;
        sh.reported = true;  // one warning per location, as in Eraser
    }
    sh.lastInstr = instr;
}

void
LocksetDetector::read(Tid t, ir::Addr addr, ir::InstrId instr)
{
    access(t, addr, instr, false);
}

void
LocksetDetector::write(Tid t, ir::Addr addr, ir::InstrId instr)
{
    access(t, addr, instr, true);
}

} // namespace txrace::detector
