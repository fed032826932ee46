#include "detector/fasttrack.hh"

#include <algorithm>
#include <bit>

namespace txrace::detector {

HbDetector::HbDetector(const DetectorConfig &cfg, uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
}

VectorClock &
HbDetector::clock(Tid t)
{
    // NOTE: growing clocks_ invalidates previously returned
    // references; callers needing two clocks at once must grow for
    // the larger tid first (see threadCreated/threadJoined).
    if (t >= clocks_.size())
        clocks_.resize(static_cast<size_t>(t) + 1);
    return clocks_[t];
}

void
HbDetector::rootThread(Tid t)
{
    clock(t).tick(t);
}

void
HbDetector::threadCreated(Tid parent, Tid child)
{
    clock(std::max(parent, child));  // grow once, up front
    VectorClock &p = clock(parent);
    VectorClock &c = clock(child);
    c.join(p);
    c.tick(child);
    p.tick(parent);
}

void
HbDetector::threadJoined(Tid joiner, Tid joined)
{
    clock(std::max(joiner, joined));  // grow once, up front
    clock(joiner).join(clock(joined));
}

void
HbDetector::lockAcquire(Tid t, uint64_t lock_id)
{
    clock(t).join(lockClocks_[lock_id]);
}

void
HbDetector::lockRelease(Tid t, uint64_t lock_id)
{
    VectorClock &vc = clock(t);
    lockClocks_[lock_id] = vc;
    vc.tick(t);
}

void
HbDetector::condSignal(Tid t, uint64_t cond_id)
{
    VectorClock &vc = clock(t);
    condClocks_[cond_id].join(vc);
    vc.tick(t);
}

void
HbDetector::condWait(Tid t, uint64_t cond_id)
{
    clock(t).join(condClocks_[cond_id]);
}

void
HbDetector::barrierRelease(const std::vector<Tid> &participants)
{
    VectorClock merged;
    for (Tid t : participants)
        merged.join(clock(t));
    for (Tid t : participants) {
        VectorClock &vc = clock(t);
        vc.join(merged);
        vc.tick(t);
    }
}

HbDetector::ShadowPage &
HbDetector::newPage(uint64_t no)
{
    if (no < kMaxDirectPages && no >= pages_.size())
        pages_.resize(no + 1);
    auto &slot = no < kMaxDirectPages ? pages_[no] : farPages_[no];
    if (!slot)
        slot = std::make_unique<ShadowPage>();
    return *slot;
}

void
HbDetector::read(Tid t, ir::Addr addr, ir::InstrId instr)
{
    ++counters_.reads;
    ShadowCell &cell = cellAt(mem::granuleOf(addr));
    const VectorClock &vc = clockOf(t);
    const Access mine{vc.get(t), t, instr};
    Access *reads = cell.reads();
    uint32_t &n = cell.nReads;

    if (unordered(cell.write, t, vc)) {
        reportRace(cell.write.instr, instr, RaceKind::WriteRead, addr, t,
                   cell.write.tid);
        ++counters_.raceHits;
    }

    // Update the read set: replace this thread's entry, drop entries
    // that are now ordered before us (they can no longer race with any
    // future access that we are ordered with), and append. A
    // branch-free scan finds the usual case, one entry (our own).
    auto ordered = [&](const Access &r) -> bool {
        return (r.tid == t) | (r.clock <= vc.get(r.tid));
    };
    uint64_t stale = n > 64 ? ~0ull : 0;  // bit i: entry i goes
    for (uint32_t i = 0; i < n && i < 64; ++i)
        stale |= uint64_t{ordered(reads[i])} << i;
    if (stale && !(stale & (stale - 1))) {  // exactly one
        reads[std::countr_zero(stale)] = reads[--n];
    } else if (stale) {
        for (uint32_t i = 0; i < n;) {
            if (ordered(reads[i]))
                reads[i] = reads[--n];
            else
                ++i;
        }
    }
    if (n == std::max(cell.cap, 1u)) {  // full: move to a larger array
        cell.cap = std::max(2 * cell.cap, 4u);
        auto grown = std::make_unique<Access[]>(cell.cap);
        std::copy_n(reads, n, grown.get());
        cell.heap = std::move(grown);
        reads = cell.heap.get();
    }
    reads[n++] = mine;
    // FastTrack's adaptive-representation statistic: when the read
    // state collapses to a single epoch, the O(1) fast path suffices;
    // multiple survivors mean a promoted vector clock (FastTrack
    // reports >99% of reads stay in the epoch case).
    if (n == 1)
        ++counters_.readEpochSufficient;
    else
        ++counters_.readVcPromoted;
    if (cfg_.maxShadowCells > 0 && n > cfg_.maxShadowCells) {
        reads[rng_.below(n)] = reads[n - 1];
        --n;
        ++counters_.evictions;
    }
}

void
HbDetector::write(Tid t, ir::Addr addr, ir::InstrId instr)
{
    ++counters_.writes;
    ShadowCell &cell = cellAt(mem::granuleOf(addr));
    const VectorClock &vc = clockOf(t);
    const Access mine{vc.get(t), t, instr};

    if (unordered(cell.write, t, vc)) {
        reportRace(cell.write.instr, instr, RaceKind::WriteWrite, addr,
                   t, cell.write.tid);
        ++counters_.raceHits;
    }
    const Access *reads = cell.reads();
    for (uint32_t i = 0; i < cell.nReads; ++i) {
        if (unordered(reads[i], t, vc)) {
            reportRace(reads[i].instr, instr, RaceKind::ReadWrite, addr,
                       t, reads[i].tid);
            ++counters_.raceHits;
        }
    }

    cell.write = mine;
    cell.nReads = 0;
}

void
HbDetector::reportRace(ir::InstrId a, ir::InstrId b, RaceKind kind,
                       ir::Addr addr, Tid current, Tid other)
{
    bool isNew = races_.record(a, b, kind, addr);
    if (isNew && observer_) {
        Race race{std::min(a, b), std::max(a, b), kind, addr, 1};
        observer_(race, current, other);
    }
}

} // namespace txrace::detector
