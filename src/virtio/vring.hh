/**
 * @file
 * Virtio 1.0 split-ring ("vring") memory layout.
 *
 * The ring lives in simulated guest memory with the exact byte
 * layout of the virtio 1.0 specification (section 2.4): a
 * descriptor table, an available ring written by the driver, and a
 * used ring written by the device. IO-Bond's shadow vrings (paper
 * Fig. 4) are a second instance of this same layout in hypervisor
 * memory, kept in sync by DMA.
 */

#ifndef BMHIVE_VIRTIO_VRING_HH
#define BMHIVE_VIRTIO_VRING_HH

#include <cstddef>
#include <cstdint>

#include "base/units.hh"
#include "mem/guest_memory.hh"

namespace bmhive {
namespace virtio {

/** Descriptor flags (virtio 1.0 section 2.4.4). */
enum DescFlags : std::uint16_t {
    VRING_DESC_F_NEXT = 1,     ///< chained to the 'next' field
    VRING_DESC_F_WRITE = 2,    ///< device writes (vs reads) buffer
    VRING_DESC_F_INDIRECT = 4, ///< buffer holds an indirect table
};

/** Available-ring flags. */
enum AvailFlags : std::uint16_t {
    VRING_AVAIL_F_NO_INTERRUPT = 1,
};

/** Used-ring flags. */
enum UsedFlags : std::uint16_t {
    VRING_USED_F_NO_NOTIFY = 1,
};

/** One descriptor: 16 bytes on the wire. */
struct VringDesc
{
    std::uint64_t addr;  ///< guest-physical buffer address
    std::uint32_t len;   ///< buffer length
    std::uint16_t flags; ///< DescFlags
    std::uint16_t next;  ///< next descriptor if F_NEXT
};

static constexpr Bytes vringDescSize = 16;

// Descriptors are loaded and stored as whole records, so the struct
// must be byte-for-byte the wire layout (on a little-endian host,
// which GuestMemory asserts).
static_assert(sizeof(VringDesc) == vringDescSize &&
              offsetof(VringDesc, len) == 8 &&
              offsetof(VringDesc, flags) == 12 &&
              offsetof(VringDesc, next) == 14);

/**
 * Event-index notification test (virtio 1.0 section 2.4.7.2):
 * with VIRTIO_RING_F_EVENT_IDX, a notification is needed iff the
 * index just passed the other side's published event index. All
 * arithmetic is modulo 2^16.
 */
constexpr bool
vringNeedEvent(std::uint16_t event, std::uint16_t new_idx,
               std::uint16_t old_idx)
{
    return std::uint16_t(new_idx - event - 1) <
           std::uint16_t(new_idx - old_idx);
}

/** One used-ring element: 8 bytes on the wire. */
struct VringUsedElem
{
    std::uint32_t id;  ///< head index of the completed chain
    std::uint32_t len; ///< bytes written into device-writable parts
};

static_assert(sizeof(VringUsedElem) == 8 &&
              offsetof(VringUsedElem, len) == 4);

/**
 * Address map of one vring of @c size entries based at the three
 * area addresses the driver programs into the device (queue_desc /
 * queue_driver / queue_device in the virtio-pci common config).
 */
class VringLayout
{
  public:
    VringLayout() = default;

    VringLayout(std::uint16_t size, Addr desc, Addr avail, Addr used)
        : size_(size), desc_(desc), avail_(avail), used_(used) {}

    /**
     * Compute a contiguous layout starting at @p base with the
     * spec's alignment rules; convenient for drivers allocating a
     * ring in one block.
     */
    static VringLayout contiguous(std::uint16_t size, Addr base);

    /** Total bytes of a contiguous ring of @p size entries. */
    static Bytes bytesNeeded(std::uint16_t size);

    std::uint16_t size() const { return size_; }
    Addr descAddr() const { return desc_; }
    Addr availAddr() const { return avail_; }
    Addr usedAddr() const { return used_; }
    bool valid() const { return size_ != 0; }

    /**
     * True if all three ring areas lie inside a memory of
     * @p mem_size bytes (overflow-safe). The area addresses are
     * guest-programmed and must be validated before any accessor
     * touches memory through this layout.
     */
    bool fitsIn(Bytes mem_size) const;

    // Accessors. Inline: the ring path makes millions of these per
    // run. GuestMemory bounds-checks every one, slots and indices
    // are checked against the ring size, and records move whole.

    // --- Descriptor table ---
    VringDesc
    readDesc(const GuestMemory &m, std::uint16_t i) const
    {
        return m.load<VringDesc>(descSlot(i));
    }

    void
    writeDesc(GuestMemory &m, std::uint16_t i, const VringDesc &d) const
    {
        m.store(descSlot(i), d);
    }

    // --- Available ring (driver -> device) ---
    std::uint16_t
    availFlags(const GuestMemory &m) const
    {
        return m.read16(avail_);
    }
    std::uint16_t
    availIdx(const GuestMemory &m) const
    {
        return m.read16(avail_ + 2);
    }
    std::uint16_t
    availRing(const GuestMemory &m, std::uint16_t slot) const
    {
        return m.read16(availSlot(slot));
    }
    void
    setAvailFlags(GuestMemory &m, std::uint16_t v) const
    {
        m.write16(avail_, v);
    }
    void
    setAvailIdx(GuestMemory &m, std::uint16_t v) const
    {
        m.write16(avail_ + 2, v);
    }
    void
    setAvailRing(GuestMemory &m, std::uint16_t slot,
                 std::uint16_t v) const
    {
        m.write16(availSlot(slot), v);
    }
    /** used_event field (F_EVENT_IDX), after the ring entries. */
    std::uint16_t
    usedEvent(const GuestMemory &m) const
    {
        return m.read16(avail_ + 4 + 2 * Addr(size_));
    }
    void
    setUsedEvent(GuestMemory &m, std::uint16_t v) const
    {
        m.write16(avail_ + 4 + 2 * Addr(size_), v);
    }

    // --- Used ring (device -> driver) ---
    std::uint16_t
    usedFlags(const GuestMemory &m) const
    {
        return m.read16(used_);
    }
    std::uint16_t
    usedIdx(const GuestMemory &m) const
    {
        return m.read16(used_ + 2);
    }
    VringUsedElem
    usedRing(const GuestMemory &m, std::uint16_t slot) const
    {
        return m.load<VringUsedElem>(usedSlot(slot));
    }
    void
    setUsedFlags(GuestMemory &m, std::uint16_t v) const
    {
        m.write16(used_, v);
    }
    void
    setUsedIdx(GuestMemory &m, std::uint16_t v) const
    {
        m.write16(used_ + 2, v);
    }
    void
    setUsedRing(GuestMemory &m, std::uint16_t slot,
                const VringUsedElem &e) const
    {
        m.store(usedSlot(slot), e);
    }
    /** avail_event field, after the used entries. */
    std::uint16_t
    availEvent(const GuestMemory &m) const
    {
        return m.read16(used_ + 4 + 8 * Addr(size_));
    }
    void
    setAvailEvent(GuestMemory &m, std::uint16_t v) const
    {
        m.write16(used_ + 4 + 8 * Addr(size_), v);
    }

    /** Byte sizes of the three areas (for shadow-ring DMA sync). */
    Bytes descBytes() const { return Bytes(size_) * vringDescSize; }
    Bytes availBytes() const { return 4 + 2 * Bytes(size_) + 2; }
    Bytes usedBytes() const { return 4 + 8 * Bytes(size_) + 2; }

  private:
    /** Address of descriptor / avail slot / used slot @p i;
     *  panics if @p i is not below the ring size. */
    Addr
    descSlot(std::uint16_t i) const
    {
        if (i >= size_)
            [[unlikely]] indexOutOfRange("descriptor index", i);
        return desc_ + Addr(i) * vringDescSize;
    }
    Addr
    availSlot(std::uint16_t slot) const
    {
        if (slot >= size_)
            [[unlikely]] indexOutOfRange("avail slot", slot);
        return avail_ + 4 + 2 * Addr(slot);
    }
    Addr
    usedSlot(std::uint16_t slot) const
    {
        if (slot >= size_)
            [[unlikely]] indexOutOfRange("used slot", slot);
        return used_ + 4 + 8 * Addr(slot);
    }

    [[noreturn, gnu::cold, gnu::noinline]] static void
    indexOutOfRange(const char *what, unsigned i);

    std::uint16_t size_ = 0;
    Addr desc_ = 0;
    Addr avail_ = 0;
    Addr used_ = 0;
};

} // namespace virtio
} // namespace bmhive

#endif // BMHIVE_VIRTIO_VRING_HH
