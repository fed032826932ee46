#include "htm/htm.hh"

#include <algorithm>
#include <bit>

#include "support/log.hh"

namespace txrace::htm {

std::string
abortToString(AbortStatus s)
{
    if (isUnknownAbort(s))
        return "unknown";
    std::string out;
    auto append = [&](const char *name) {
        if (!out.empty())
            out += "|";
        out += name;
    };
    if (s & kAbortRetry)
        append("retry");
    if (s & kAbortConflict)
        append("conflict");
    if (s & kAbortCapacity)
        append("capacity");
    if (s & kAbortDebug)
        append("debug");
    if (s & kAbortNested)
        append("nested");
    if (s & kAbortExplicit)
        append("explicit");
    return out;
}

HtmEngine::HtmEngine(const HtmConfig &cfg, uint64_t seed)
    : cfg_(cfg), rng_(seed ^ 0xca9ac117ULL)
{
    if (cfg_.l1Sets == 0 || (cfg_.l1Sets & (cfg_.l1Sets - 1)) != 0)
        fatal("HtmEngine: l1Sets must be a nonzero power of two");
    if (cfg_.l1Ways == 0)
        fatal("HtmEngine: l1Ways must be nonzero");
    if (cfg_.maxConcurrentTx == 0)
        fatal("HtmEngine: maxConcurrentTx must be nonzero");
    if (cfg_.maxConcurrentTx > 64)
        fatal("HtmEngine: maxConcurrentTx must be <= 64 (one "
              "directory bitmask bit per in-flight transaction)");
}

bool
HtmEngine::canBegin() const
{
    return inFlight_ < cfg_.maxConcurrentTx;
}

HtmEngine::TxState &
HtmEngine::state(Tid t)
{
    if (t >= tx_.size())
        tx_.resize(t + 1);
    return tx_[t];
}

void
HtmEngine::beginOccupancy(TxState &s)
{
    if (s.setOccupancy.empty()) {
        s.setOccupancy.resize(cfg_.l1Sets, 0);
        s.setStamp.resize(cfg_.l1Sets, 0);
    }
    if (++s.occEpoch == 0) {
        // Stamp wraparound: pay one memset every 2^32 transactions so
        // pre-wrap stamps cannot read as current.
        std::fill(s.setStamp.begin(), s.setStamp.end(), 0u);
        s.occEpoch = 1;
    }
}

void
HtmEngine::begin(Tid t)
{
    if (!canBegin())
        panic("HtmEngine::begin beyond concurrent-transaction limit");
    TxState &s = state(t);
    if (s.active)
        panic("HtmEngine::begin: thread %u already transactional", t);
    s.active = true;
    uint32_t slot =
        static_cast<uint32_t>(std::countr_zero(~slotsUsed_));
    slotsUsed_ |= uint64_t{1} << slot;
    s.slot = slot;
    slotTid_[slot] = t;
    s.lines.clear();
    s.readLineCount = 0;
    s.writeLineCount = 0;
    beginOccupancy(s);
    ++inFlight_;
    ++counters_.begins;
}

uint32_t
HtmEngine::effectiveWays()
{
    // Fault injection (capacity cliff) removes ways first; jitter
    // then nibbles at whatever remains.
    uint32_t ways = waysPenalty_ < cfg_.l1Ways
        ? cfg_.l1Ways - waysPenalty_
        : 1;
    if (cfg_.capacityJitter > 0.0 && ways > 2 &&
        rng_.chance(cfg_.capacityJitter)) {
        // One or two ways transiently occupied by others (victim
        // lines, the hyperthread twin, prefetch).
        ways -= 1 + static_cast<uint32_t>(rng_.below(2));
    }
    return ways;
}

void
HtmEngine::accessDirectory(uint64_t line, bool is_write, TxState *self,
                           bool self_tx, AccessResult &result)
{
    // One probe serves the capacity membership test, the victim mask,
    // and the insertion. Only a transactional requester inserts the
    // key; non-transactional accesses just look (no bit to set, and
    // dead keys would bloat the table under slow-path episodes).
    LineDirectory::Entry *e =
        self_tx ? &dir_.findOrInsert(line) : dir_.find(line);
    const uint64_t selfBit =
        self_tx ? uint64_t{1} << self->slot : 0;

    if (self_tx) {
        // Capacity is checked before the request is issued: an
        // overflowing transaction dies without disturbing others.
        if (is_write && !(e->writers & selfBit)) {
            uint32_t set = static_cast<uint32_t>(line) &
                           (cfg_.l1Sets - 1);
            if (occupancyOf(*self, set) + 1u > effectiveWays()) {
                abortTx(slotTid_[self->slot], kAbortCapacity);
                result.selfCapacity = true;
                return;
            }
        }
        if (!is_write && !(e->readers & selfBit) &&
            self->readLineCount + 1 > cfg_.readSetMaxLines) {
            abortTx(slotTid_[self->slot], kAbortCapacity);
            result.selfCapacity = true;
            return;
        }
    }

    // Requester-wins: every other transaction holding the line in a
    // conflicting mode aborts. One bitmask intersection, O(1) in the
    // number of open transactions.
    if (e && inFlight_ > (self_tx ? 1u : 0u)) {
        uint64_t mask = is_write ? (e->readers | e->writers)
                                 : e->writers;
        mask &= ~selfBit;
        if (mask) {
            for (uint64_t m = mask; m; m &= m - 1)
                result.victims.push_back(
                    slotTid_[std::countr_zero(m)]);
            // Deterministic ascending tid order.
            std::sort(result.victims.begin(), result.victims.end());
            for (Tid u : result.victims)
                abortTx(u, kAbortConflict | kAbortRetry);
        }
    }

    if (self_tx) {
        bool hadAny = ((e->readers | e->writers) & selfBit) != 0;
        if (is_write) {
            if (!(e->writers & selfBit)) {
                e->writers |= selfBit;
                ++self->writeLineCount;
                bumpOccupancy(*self,
                              static_cast<uint32_t>(line) &
                                  (cfg_.l1Sets - 1));
            }
        } else {
            if (!(e->readers & selfBit)) {
                e->readers |= selfBit;
                ++self->readLineCount;
            }
        }
        if (!hadAny)
            self->lines.push_back(line);
    }
}

void
HtmEngine::release(TxState &s)
{
    --inFlight_;
    slotsUsed_ &= ~(uint64_t{1} << s.slot);
    if (inFlight_ == 0) {
        // Last transaction out: drop the whole directory with one
        // epoch bump instead of walking the line list.
        dir_.bulkClear();
    } else {
        for (uint64_t line : s.lines)
            dir_.clearSlot(line, s.slot);
    }
    s.lines.clear();
    s.readLineCount = 0;
    s.writeLineCount = 0;
}

void
HtmEngine::commit(Tid t)
{
    TxState &s = state(t);
    if (!s.active)
        panic("HtmEngine::commit: thread %u not transactional", t);
    s.active = false;
    release(s);
    ++counters_.commits;
}

void
HtmEngine::abortTx(Tid t, AbortStatus status)
{
    TxState &s = state(t);
    if (!s.active)
        panic("HtmEngine::abortTx: thread %u not transactional", t);
    s.active = false;
    release(s);
    s.lastAbort = status;
    if (status & kAbortCapacity)
        ++counters_.abortsCapacity;
    else if (status & kAbortConflict)
        ++counters_.abortsConflict;
    else if (isUnknownAbort(status))
        ++counters_.abortsUnknown;
    else
        ++counters_.abortsOther;
}

AbortStatus
HtmEngine::lastAbortStatus(Tid t) const
{
    const TxState *s = stateIfAny(t);
    return s ? s->lastAbort : 0;
}

size_t
HtmEngine::readSetLines(Tid t) const
{
    const TxState *s = stateIfAny(t);
    return s && s->active ? s->readLineCount : 0;
}

size_t
HtmEngine::writeSetLines(Tid t) const
{
    const TxState *s = stateIfAny(t);
    return s && s->active ? s->writeLineCount : 0;
}

} // namespace txrace::htm
