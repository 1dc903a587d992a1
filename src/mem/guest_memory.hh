/**
 * @file
 * GuestMemory: a flat simulated physical memory.
 *
 * In BM-Hive the bm-guest (compute board) and the bm-hypervisor
 * (base board) have *separate* physical memories — the property
 * that forces IO-Bond's shadow-vring design (paper section 3.4.1).
 * Each board therefore owns its own GuestMemory instance; nothing
 * in the simulator can alias them.
 *
 * Addresses are guest-physical. Multi-byte accessors are
 * little-endian, matching the virtio 1.0 wire format.
 */

#ifndef BMHIVE_MEM_GUEST_MEMORY_HH
#define BMHIVE_MEM_GUEST_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace bmhive {

class GuestMemory
{
  public:
    /**
     * @param name human-readable label for diagnostics
     * @param size memory size in bytes
     */
    GuestMemory(std::string name, Bytes size)
        : name_(std::move(name)), data_(size, 0) {}

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    const std::string &name() const { return name_; }
    Bytes size() const { return data_.size(); }

    /** Raw byte access. */
    void read(Addr addr, void *dst, Bytes len) const;
    void write(Addr addr, const void *src, Bytes len);

    /**
     * Bounds-checked direct view of [addr, addr + len), for copies
     * and checksums that need no staging buffer. Panics on an
     * out-of-bounds range exactly like read()/write(). The pointer
     * stays valid for the memory's lifetime (its size is fixed).
     */
    const std::uint8_t *span(Addr addr, Bytes len) const;
    std::uint8_t *span(Addr addr, Bytes len);

    /** Typed little-endian accessors. */
    std::uint8_t read8(Addr addr) const { return readT<std::uint8_t>(addr); }
    std::uint16_t read16(Addr addr) const { return readT<std::uint16_t>(addr); }
    std::uint32_t read32(Addr addr) const { return readT<std::uint32_t>(addr); }
    std::uint64_t read64(Addr addr) const { return readT<std::uint64_t>(addr); }

    void write8(Addr addr, std::uint8_t v) { writeT(addr, v); }
    void write16(Addr addr, std::uint16_t v) { writeT(addr, v); }
    void write32(Addr addr, std::uint32_t v) { writeT(addr, v); }
    void write64(Addr addr, std::uint64_t v) { writeT(addr, v); }

    /** Fill a region with a byte value. */
    void fill(Addr addr, Bytes len, std::uint8_t value);

    /** Read a region into a fresh vector. */
    std::vector<std::uint8_t> readBlob(Addr addr, Bytes len) const;

    /** Write a vector into memory. */
    void writeBlob(Addr addr, const std::vector<std::uint8_t> &blob);

  private:
    template <typename T>
    T
    readT(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(Addr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

    std::string name_;
    std::vector<std::uint8_t> data_;
};

/**
 * Trivial first-fit bump allocator over a GuestMemory, used by
 * tests and guest models to lay out rings and buffers without a
 * full memory manager. Allocations are aligned and never freed
 * individually (reset() releases everything).
 */
class BumpAllocator
{
  public:
    BumpAllocator(GuestMemory &mem, Addr base = 0)
        : mem_(&mem), base_(base), next_(base) {}

    /** Allocate @p len bytes aligned to @p align. */
    Addr alloc(Bytes len, Bytes align = 16);

    /** Release everything. */
    void reset() { next_ = base_; }

    /**
     * Re-point the allocator at a different memory/region and
     * release everything — used when a shadow region migrates to
     * another base server's memory.
     */
    void
    reseat(GuestMemory &mem, Addr base)
    {
        mem_ = &mem;
        base_ = base;
        next_ = base;
    }

    Bytes used() const { return next_ - base_; }

  private:
    GuestMemory *mem_;
    Addr base_;
    Addr next_;
};

} // namespace bmhive

#endif // BMHIVE_MEM_GUEST_MEMORY_HH
