#include "sync/primitives.hh"

#include "support/log.hh"

namespace txrace::sync {

bool
SyncTables::lockTryAcquire(Tid t, uint64_t id)
{
    Mutex &m = mutexes_[id];
    if (m.owner == kNoTid) {
        m.owner = t;
        return true;
    }
    if (m.owner == t)
        panic("SyncTables: thread %u re-acquiring mutex %llu", t,
              static_cast<unsigned long long>(id));
    return false;
}

void
SyncTables::lockEnqueue(Tid t, uint64_t id)
{
    mutexes_[id].waiters.push_back(t);
}

Tid
SyncTables::lockRelease(Tid t, uint64_t id)
{
    auto it = mutexes_.find(id);
    if (it == mutexes_.end() || it->second.owner != t)
        panic("SyncTables: thread %u releasing mutex %llu it does not "
              "hold", t, static_cast<unsigned long long>(id));
    Mutex &m = it->second;
    if (m.waiters.empty()) {
        m.owner = kNoTid;
        return kNoTid;
    }
    Tid next = m.waiters.front();
    m.waiters.pop_front();
    m.owner = next;
    return next;
}

Tid
SyncTables::lockOwner(uint64_t id) const
{
    auto it = mutexes_.find(id);
    return it == mutexes_.end() ? kNoTid : it->second.owner;
}

bool
SyncTables::condTryWait(uint64_t id)
{
    Cond &c = conds_[id];
    if (c.banked > 0) {
        --c.banked;
        return true;
    }
    return false;
}

void
SyncTables::condEnqueue(Tid t, uint64_t id)
{
    conds_[id].waiters.push_back(t);
}

Tid
SyncTables::condSignal(uint64_t id)
{
    Cond &c = conds_[id];
    if (!c.waiters.empty()) {
        Tid woken = c.waiters.front();
        c.waiters.pop_front();
        return woken;
    }
    ++c.banked;
    return kNoTid;
}

const std::vector<Tid> &
SyncTables::barrierArrive(Tid t, uint64_t id, uint64_t participants)
{
    static const std::vector<Tid> kNone;
    if (participants == 0)
        panic("SyncTables: barrier %llu with zero participants",
              static_cast<unsigned long long>(id));
    Barrier &b = barriers_[id];
    b.arrived.push_back(t);
    if (b.arrived.size() < participants)
        return kNone;
    released_.swap(b.arrived);
    b.arrived.clear();
    return released_;
}

bool
SyncTables::anyWaiters() const
{
    for (const auto &[id, m] : mutexes_)
        if (!m.waiters.empty())
            return true;
    for (const auto &[id, c] : conds_)
        if (!c.waiters.empty())
            return true;
    for (const auto &[id, b] : barriers_)
        if (!b.arrived.empty())
            return true;
    return false;
}

} // namespace txrace::sync
