/**
 * @file
 * Virtio-blk wire format (virtio 1.0 section 5.2): the request
 * header (type, sector), the trailing status byte, the
 * device-specific configuration (capacity), and feature bits.
 */

#ifndef BMHIVE_VIRTIO_VIRTIO_BLK_HH
#define BMHIVE_VIRTIO_VIRTIO_BLK_HH

#include <cstddef>
#include <cstdint>

#include "mem/guest_memory.hh"

namespace bmhive {
namespace virtio {

/** Virtio-blk request types. */
enum BlkReqType : std::uint32_t {
    VIRTIO_BLK_T_IN = 0,    ///< read
    VIRTIO_BLK_T_OUT = 1,   ///< write
    VIRTIO_BLK_T_FLUSH = 4,
};

/** Virtio-blk status byte values. */
enum BlkStatus : std::uint8_t {
    VIRTIO_BLK_S_OK = 0,
    VIRTIO_BLK_S_IOERR = 1,
    VIRTIO_BLK_S_UNSUPP = 2,
};

/** Virtio-blk feature bits. */
enum BlkFeatureBits : std::uint64_t {
    VIRTIO_BLK_F_SEG_MAX = 1ull << 2,
    VIRTIO_BLK_F_BLK_SIZE = 1ull << 6,
    VIRTIO_BLK_F_FLUSH = 1ull << 9,
    /** Device offers multiple submission queues (num_queues in the
     *  device config); the driver submits on queue vCPU % n. */
    VIRTIO_BLK_F_MQ = 1ull << 12,
};

constexpr Bytes blkSectorSize = 512;

/**
 * virtio_blk_req header: 16 bytes the device reads, followed in the
 * chain by data segments and a 1-byte status the device writes.
 */
struct VirtioBlkReqHdr
{
    std::uint32_t type = VIRTIO_BLK_T_IN;
    std::uint32_t reserved = 0;
    std::uint64_t sector = 0;

    static constexpr Bytes wireSize = 16;

    /** Moved as one record: the struct is the wire layout. */
    void writeTo(GuestMemory &m, Addr a) const { m.store(a, *this); }
    static VirtioBlkReqHdr
    readFrom(const GuestMemory &m, Addr a)
    {
        return m.load<VirtioBlkReqHdr>(a);
    }
};

static_assert(sizeof(VirtioBlkReqHdr) == VirtioBlkReqHdr::wireSize &&
              offsetof(VirtioBlkReqHdr, sector) == 8);

/** Device-specific config: capacity in 512-byte sectors, then the
 *  submission-queue count offered with VIRTIO_BLK_F_MQ. */
struct VirtioBlkConfig
{
    std::uint64_t capacitySectors = 0;
    std::uint16_t numQueues = 1;

    static constexpr Addr capacityOffset = 0;
    static constexpr Addr numQueuesOffset = 8;
};

} // namespace virtio
} // namespace bmhive

#endif // BMHIVE_VIRTIO_VIRTIO_BLK_HH
