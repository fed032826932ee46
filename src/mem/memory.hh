/**
 * @file
 * Flat simulated data memory.
 *
 * Race detection itself is value-agnostic, so the simulator only
 * materializes values when a program opts in; examples and tests use
 * VirtualMemory directly to give workloads observable state.
 *
 * Storage is paged: granules live in flat 4 KiB pages found by page
 * number. Pages below kNearPages (the first 256 MiB, which holds every
 * registry app's address space many times over) sit in a vector
 * indexed by page number, grown on demand, so a load or store is two
 * array indexes whichever threads interleave; farther pages, which
 * only hand-built programs reach, sit in a map.
 */

#ifndef TXRACE_MEM_MEMORY_HH
#define TXRACE_MEM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/layout.hh"

namespace txrace::mem {

/**
 * Sparse 64-bit-granule memory. Reads of untouched granules return 0.
 */
class VirtualMemory
{
  public:
    /** Read the 8-byte granule containing @p addr. */
    uint64_t
    load(Addr addr) const
    {
        uint64_t granule = granuleOf(addr);
        const Page *page = findPage(granule >> kPageGranuleBits);
        return page ? page->cells[granule & kPageGranuleMask] : 0;
    }

    /** Overwrite the 8-byte granule containing @p addr. */
    void
    store(Addr addr, uint64_t value)
    {
        cellForWrite(addr) = value;
    }

    /** Add @p delta to the granule containing @p addr: store(addr,
     *  load(addr) + delta) with one page lookup. */
    void
    add(Addr addr, uint64_t delta)
    {
        cellForWrite(addr) += delta;
    }

    /** Number of granules ever written. */
    size_t footprint() const { return footprint_; }

    /** Drop all contents. */
    void
    clear()
    {
        near_.clear();
        far_.clear();
        footprint_ = 0;
    }

  private:
    /** 512 granules = 4 KiB of data per page. */
    static constexpr unsigned kPageGranuleBits = 9;
    static constexpr uint64_t kPageGranules = 1ull << kPageGranuleBits;
    static constexpr uint64_t kPageGranuleMask = kPageGranules - 1;
    /** Pages found by vector index: 256 MiB of address space, at most
     *  512 KiB of page pointers. */
    static constexpr uint64_t kNearPages = 1ull << 16;

    struct Page
    {
        std::array<uint64_t, kPageGranules> cells{};
        /** Written-granule bitmap: zero-valued stores still count
         *  toward the footprint, exactly as map insertion did. */
        std::array<uint64_t, kPageGranules / 64> written{};
    };

    /** The cell of @p addr's granule, marked written (zero-valued
     *  stores still count toward the footprint). */
    uint64_t &
    cellForWrite(Addr addr)
    {
        uint64_t granule = granuleOf(addr);
        Page &page = getPage(granule >> kPageGranuleBits);
        size_t idx = granule & kPageGranuleMask;
        uint64_t bit = uint64_t{1} << (idx & 63);
        uint64_t &word = page.written[idx >> 6];
        if (!(word & bit)) {
            word |= bit;
            ++footprint_;
        }
        return page.cells[idx];
    }

    const Page *
    findPage(uint64_t pageNo) const
    {
        if (pageNo < near_.size())
            return near_[pageNo].get();
        if (pageNo < kNearPages)
            return nullptr;
        auto it = far_.find(pageNo);
        return it == far_.end() ? nullptr : it->second.get();
    }

    Page &
    getPage(uint64_t pageNo)
    {
        if (pageNo < near_.size() && near_[pageNo]) [[likely]]
            return *near_[pageNo];
        return farOrNewPage(pageNo);
    }

    /** getPage() of a page near_ does not hold: a far page, or a near
     *  page never written, which is created here. Out of line so the
     *  common store stays small enough to inline. */
    [[gnu::noinline]] Page &
    farOrNewPage(uint64_t pageNo)
    {
        std::unique_ptr<Page> *slot;
        if (pageNo < kNearPages) {
            if (pageNo >= near_.size())
                near_.resize(pageNo + 1);
            slot = &near_[pageNo];
        } else {
            slot = &far_[pageNo];
        }
        if (!*slot)
            *slot = std::make_unique<Page>();
        return **slot;
    }

    /** Pages below kNearPages, indexed by page number (null: never
     *  written). */
    std::vector<std::unique_ptr<Page>> near_;
    /** Pages at or past kNearPages. */
    std::unordered_map<uint64_t, std::unique_ptr<Page>> far_;
    size_t footprint_ = 0;
};

} // namespace txrace::mem

#endif // TXRACE_MEM_MEMORY_HH
