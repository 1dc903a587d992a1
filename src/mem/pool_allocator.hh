/**
 * @file
 * First-fit free-list allocator with coalescing over a region of a
 * GuestMemory. IO-Bond uses one to manage its shadow-buffer arena
 * in base-board memory: every in-flight descriptor chain borrows
 * shadow buffers for the duration of the request.
 *
 * Contract: *exact* address-ordered first fit. alloc() returns the
 * aligned start inside the lowest-addressed free extent that can
 * hold the request; the alignment padding in front of it stays
 * free. Shadow-buffer addresses are visible in base memory and in
 * every modelled number derived from it, so any faster search must
 * return exactly these addresses (the differential test in
 * mem_test.cc replays random traffic against a reference).
 *
 * The free extents live in one flat, address-sorted vector and the
 * live blocks in a flat hash table, so once both have reached their
 * high-water size, alloc() and free() never touch the heap. The
 * scan for a request starts from a per-shape hint: the index before
 * which no extent can hold that (length, alignment). IO-Bond asks
 * for a handful of shapes (2 KiB rx buffers, short tx frames, block
 * requests), and without the hint every rx allocation would walk
 * the comb of small holes the tx frames leave in front of it.
 */

#ifndef BMHIVE_MEM_POOL_ALLOCATOR_HH
#define BMHIVE_MEM_POOL_ALLOCATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/flat_map.hh"
#include "base/units.hh"

namespace bmhive {

class PoolAllocator
{
  public:
    /** Manage [base, base+size) (addresses, no memory touched). */
    PoolAllocator(Addr base, Bytes size);

    /**
     * Allocate @p len bytes (aligned to @p align).
     * @return address, or nullAddr on exhaustion/fragmentation.
     */
    Addr alloc(Bytes len, Bytes align = 16);

    /** Return a block from alloc(); coalesces with neighbours. */
    void free(Addr addr);

    Bytes bytesFree() const { return free_; }
    Bytes bytesTotal() const { return size_; }
    std::size_t liveAllocations() const { return live_.size(); }

    static constexpr Addr nullAddr = ~Addr(0);

  private:
    struct Extent
    {
        Addr start;
        Bytes len;
    };

    /** No extent below index @c from can hold a (len, align)
     *  request; len == 0 marks an unused slot. */
    struct Hint
    {
        Bytes len = 0;
        Bytes align = 0;
        std::size_t from = 0;
    };

    static bool fits(const Extent &e, Bytes len, Bytes align);
    /** The hint for (len, align), claiming the oldest slot (with a
     *  search from 0) for a shape not seen recently. */
    Hint &hintFor(Bytes len, Bytes align);
    /** Extents after index @p pos moved by @p delta. */
    void shiftHints(std::size_t pos, int delta);
    /** Extent @p i grew: hints past it that it now fits move to i. */
    void grewAt(std::size_t i);

    Bytes size_;
    Bytes free_;
    /** Free extents, sorted by start, never adjacent (coalesced). */
    std::vector<Extent> extents_;
    /** Returned address -> block length. */
    FlatU64Map<Bytes> live_;
    std::array<Hint, 8> hints_{};
    unsigned nextHint_ = 0;
};

} // namespace bmhive

#endif // BMHIVE_MEM_POOL_ALLOCATOR_HH
