#include "detector/fasttrack.hh"

#include <algorithm>

#include "support/log.hh"

namespace txrace::detector {

HbDetector::HbDetector(const DetectorConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
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

const VectorClock &
HbDetector::clockOf(Tid t) const
{
    static const VectorClock empty;
    return t < clocks_.size() ? clocks_[t] : empty;
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

HbDetector::ShadowCell &
HbDetector::shadowCell(uint64_t granule)
{
    uint64_t pageNo = granule >> kShadowPageBits;
    if (pageNo != cachedNo_) {
        auto &slot = shadow_[pageNo];
        if (!slot)
            slot = std::make_unique<ShadowPage>();
        cachedNo_ = pageNo;
        cachedPage_ = slot.get();
    }
    return cachedPage_->cells[granule & kShadowPageMask];
}

HbDetector::ShadowCell &
HbDetector::cellFor(Tid t, uint64_t granule)
{
    if (t >= cellCache_.size())
        cellCache_.resize(static_cast<size_t>(t) + 1);
    CellCache &cc = cellCache_[t];
    const uint32_t idx = granule & (kCellCacheSize - 1);
    // cell[idx] is null until first fill, so the zero-initialized
    // granule entries cannot falsely match granule 0.
    if (cc.granule[idx] == granule && cc.cell[idx])
        return *cc.cell[idx];
    ShadowCell &cell = shadowCell(granule);
    cc.granule[idx] = granule;
    cc.cell[idx] = &cell;
    return cell;
}

void
HbDetector::read(Tid t, ir::Addr addr, ir::InstrId instr)
{
    ++counters_.reads;
    ShadowCell &cell = cellFor(t, mem::granuleOf(addr));
    const VectorClock &vc = clockOf(t);
    const Epoch mine = vc.epochOf(t);

    // Same-epoch fast path: this thread already recorded this exact
    // read (same epoch, same instruction) as the sole read entry, and
    // no unordered remote write is pending (so the full path would
    // record no race). Then the full path is a provable no-op on the
    // shadow state — skip the prune/append scan. The epoch-sufficient
    // counter still moves: the full path would have counted it.
    if (cfg_.epochFastPath && cell.reads.size() == 1 &&
        cell.reads[0].epoch == mine && cell.reads[0].instr == instr &&
        (cell.write.epoch.empty() || cell.write.epoch.tid == t ||
         vc.covers(cell.write.epoch))) {
        ++counters_.epochFastHits;
        ++counters_.readEpochSufficient;
        return;
    }

    if (!cell.write.epoch.empty() && cell.write.epoch.tid != t &&
        !vc.covers(cell.write.epoch)) {
        reportRace(cell.write.instr, instr, RaceKind::WriteRead, addr, t,
                   cell.write.epoch.tid);
        ++counters_.raceHits;
    }

    // Update the read set: replace this thread's entry, drop entries
    // that are now ordered before us (they can no longer race with any
    // future access that we are ordered with), and append.
    auto &reads = cell.reads;
    for (size_t i = 0; i < reads.size();) {
        if (reads[i].epoch.tid == t ||
            (reads[i].epoch.tid != t && vc.covers(reads[i].epoch))) {
            reads[i] = reads.back();
            reads.pop_back();
        } else {
            ++i;
        }
    }
    reads.push_back({mine, instr});
    // FastTrack's adaptive-representation statistic: when the read
    // state collapses to a single epoch, the O(1) fast path suffices;
    // multiple survivors mean a promoted vector clock (FastTrack
    // reports >99% of reads stay in the epoch case).
    if (reads.size() == 1)
        ++counters_.readEpochSufficient;
    else
        ++counters_.readVcPromoted;
    if (cfg_.maxShadowCells > 0 && reads.size() > cfg_.maxShadowCells) {
        size_t victim = rng_.below(reads.size());
        reads[victim] = reads.back();
        reads.pop_back();
        ++counters_.evictions;
    }
}

void
HbDetector::write(Tid t, ir::Addr addr, ir::InstrId instr)
{
    ++counters_.writes;
    ShadowCell &cell = cellFor(t, mem::granuleOf(addr));
    const VectorClock &vc = clockOf(t);
    const Epoch mine = vc.epochOf(t);

    // Same-epoch fast path: this thread already owns the write entry
    // at this exact epoch and instruction and no reads are recorded —
    // the full path would find no race (write epoch is ours) and
    // store back the identical entry.
    if (cfg_.epochFastPath && cell.write.epoch == mine &&
        cell.write.instr == instr && cell.reads.empty()) {
        ++counters_.epochFastHits;
        return;
    }

    if (!cell.write.epoch.empty() && cell.write.epoch.tid != t &&
        !vc.covers(cell.write.epoch)) {
        reportRace(cell.write.instr, instr, RaceKind::WriteWrite, addr,
                   t, cell.write.epoch.tid);
        ++counters_.raceHits;
    }
    for (const Access &r : cell.reads) {
        if (r.epoch.tid != t && !vc.covers(r.epoch)) {
            reportRace(r.instr, instr, RaceKind::ReadWrite, addr, t,
                       r.epoch.tid);
            ++counters_.raceHits;
        }
    }

    cell.write = {mine, instr};
    cell.reads.clear();
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
