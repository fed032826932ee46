/**
 * @file
 * Flat simulated data memory.
 *
 * Race detection itself is value-agnostic, so the simulator only
 * materializes values when a program opts in; examples and tests use
 * VirtualMemory directly to give workloads observable state.
 *
 * Storage is paged: granules live in flat 4 KiB pages found through a
 * page map, with a one-entry cache in front of it. Workload address
 * streams are strongly page-local, so the common load/store is an
 * array index instead of the per-granule hash-map probe the old
 * unordered_map<granule, value> store paid.
 */

#ifndef TXRACE_MEM_MEMORY_HH
#define TXRACE_MEM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

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
        pages_.clear();
        cachedNo_ = kNoPage;
        cachedPage_ = nullptr;
        footprint_ = 0;
    }

  private:
    /** 512 granules = 4 KiB of data per page. */
    static constexpr unsigned kPageGranuleBits = 9;
    static constexpr uint64_t kPageGranules = 1ull << kPageGranuleBits;
    static constexpr uint64_t kPageGranuleMask = kPageGranules - 1;
    static constexpr uint64_t kNoPage = ~0ull;

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
        if (pageNo == cachedNo_)
            return cachedPage_;
        auto it = pages_.find(pageNo);
        if (it == pages_.end())
            return nullptr;
        cachedNo_ = pageNo;
        cachedPage_ = it->second.get();
        return cachedPage_;
    }

    Page &
    getPage(uint64_t pageNo)
    {
        if (pageNo == cachedNo_)
            return *cachedPage_;
        auto &slot = pages_[pageNo];
        if (!slot)
            slot = std::make_unique<Page>();
        cachedNo_ = pageNo;
        cachedPage_ = slot.get();
        return *cachedPage_;
    }

    /** unique_ptr pages: stable addresses across page-map growth,
     *  which the one-entry cache relies on. */
    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    mutable uint64_t cachedNo_ = kNoPage;
    mutable Page *cachedPage_ = nullptr;
    size_t footprint_ = 0;
};

} // namespace txrace::mem

#endif // TXRACE_MEM_MEMORY_HH
