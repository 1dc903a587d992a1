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

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace bmhive {

// Multi-byte accessors and whole-record loads copy host
// representation straight to and from the little-endian wire format.
static_assert(std::endian::native == std::endian::little,
              "guest-memory accessors assume a little-endian host");

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

    /**
     * Raw byte access. Every accessor below is header-inline (the
     * ring path makes millions of them per run) and keeps the same
     * overflow-safe bounds test; a failing access reports through
     * one cold, out-of-line panic.
     */
    void
    read(Addr addr, void *dst, Bytes len) const
    {
        std::memcpy(dst, checked(addr, len, "read"), len);
    }

    void
    write(Addr addr, const void *src, Bytes len)
    {
        std::memcpy(mutableAt(addr, len, "write"), src, len);
    }

    /**
     * Bounds-checked direct view of [addr, addr + len), for copies
     * and checksums that need no staging buffer. Panics on an
     * out-of-bounds range exactly like read()/write(). The pointer
     * stays valid for the memory's lifetime (its size is fixed).
     */
    const std::uint8_t *
    span(Addr addr, Bytes len) const
    {
        return checked(addr, len, "span");
    }

    std::uint8_t *
    span(Addr addr, Bytes len)
    {
        return mutableAt(addr, len, "span");
    }

    /**
     * Whole-record load/store of a trivially copyable wire record
     * (a vring descriptor, a virtio header): one bounds check and
     * one fixed-size copy. The record's in-memory layout must be
     * its wire layout; each record type static_asserts that.
     */
    template <typename T>
    T
    load(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        std::memcpy(&v, checked(addr, sizeof(T), "read"), sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::memcpy(mutableAt(addr, sizeof(T), "write"), &v, sizeof(T));
    }

    /** Typed little-endian accessors. */
    std::uint8_t read8(Addr addr) const { return load<std::uint8_t>(addr); }
    std::uint16_t read16(Addr addr) const { return load<std::uint16_t>(addr); }
    std::uint32_t read32(Addr addr) const { return load<std::uint32_t>(addr); }
    std::uint64_t read64(Addr addr) const { return load<std::uint64_t>(addr); }

    void write8(Addr addr, std::uint8_t v) { store(addr, v); }
    void write16(Addr addr, std::uint16_t v) { store(addr, v); }
    void write32(Addr addr, std::uint32_t v) { store(addr, v); }
    void write64(Addr addr, std::uint64_t v) { store(addr, v); }

    /** Fill a region with a byte value. */
    void fill(Addr addr, Bytes len, std::uint8_t value);

    /** Read a region into a fresh vector. */
    std::vector<std::uint8_t> readBlob(Addr addr, Bytes len) const;

    /** Write a vector into memory. */
    void writeBlob(Addr addr, const std::vector<std::uint8_t> &blob);

  private:
    /** Start of [addr, addr + len) after the bounds test. */
    const std::uint8_t *
    checked(Addr addr, Bytes len, const char *op) const
    {
        if (addr + len > data_.size() || addr + len < addr)
            [[unlikely]] outOfBounds(op, addr, len);
        return data_.data() + addr;
    }

    std::uint8_t *
    mutableAt(Addr addr, Bytes len, const char *op)
    {
        return const_cast<std::uint8_t *>(checked(addr, len, op));
    }

    /** The one panic every failed access reports through. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    outOfBounds(const char *op, Addr addr, Bytes len) const;

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
