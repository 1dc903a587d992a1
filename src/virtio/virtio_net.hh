/**
 * @file
 * Virtio-net wire format (virtio 1.0 section 5.1): the per-packet
 * header that precedes every frame on the tx/rx queues, the
 * device-specific configuration layout (MAC + status), and feature
 * bits. Used by the guest driver, the IO-Bond front-end, and the
 * bm-hypervisor / vhost backends.
 */

#ifndef BMHIVE_VIRTIO_VIRTIO_NET_HH
#define BMHIVE_VIRTIO_VIRTIO_NET_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "mem/guest_memory.hh"

namespace bmhive {
namespace virtio {

/** Virtio-net feature bits. */
enum NetFeatureBits : std::uint64_t {
    VIRTIO_NET_F_CSUM = 1ull << 0,
    VIRTIO_NET_F_MAC = 1ull << 5,
    VIRTIO_NET_F_MRG_RXBUF = 1ull << 15,
    VIRTIO_NET_F_STATUS = 1ull << 16,
    /** Device offers multiple rx/tx queue pairs (section 5.1.3);
     *  the driver commits to a pair count via the config-space
     *  curr_pairs write (our ctrl-vq-less stand-in for
     *  VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET). */
    VIRTIO_NET_F_MQ = 1ull << 22,
};

/** Conventional queue indices for a 1-queue-pair device. */
enum NetQueues : unsigned {
    NET_RXQ = 0,
    NET_TXQ = 1,
};

/** Queue layout with VIRTIO_NET_F_MQ: rx0,tx0,rx1,tx1,... */
constexpr unsigned
netRxQueue(unsigned pair)
{
    return 2 * pair;
}
constexpr unsigned
netTxQueue(unsigned pair)
{
    return 2 * pair + 1;
}

/**
 * virtio_net_hdr, the 12-byte header (with num_buffers, as used
 * when VIRTIO_F_VERSION_1 is negotiated).
 */
struct VirtioNetHdr
{
    std::uint8_t flags = 0;
    std::uint8_t gsoType = 0;
    std::uint16_t hdrLen = 0;
    std::uint16_t gsoSize = 0;
    std::uint16_t csumStart = 0;
    std::uint16_t csumOffset = 0;
    std::uint16_t numBuffers = 0;

    static constexpr Bytes wireSize = 12;

    /** Moved as one record: the struct is the wire layout. */
    void writeTo(GuestMemory &m, Addr a) const { m.store(a, *this); }
    static VirtioNetHdr
    readFrom(const GuestMemory &m, Addr a)
    {
        return m.load<VirtioNetHdr>(a);
    }
};

static_assert(sizeof(VirtioNetHdr) == VirtioNetHdr::wireSize &&
              offsetof(VirtioNetHdr, hdrLen) == 2 &&
              offsetof(VirtioNetHdr, csumOffset) == 8 &&
              offsetof(VirtioNetHdr, numBuffers) == 10);

/**
 * Device-specific config layout: MAC, status, then the multi-queue
 * fields — max_virtqueue_pairs is read-only (what the device
 * offers); curr_pairs is the driver's committed pair count, written
 * through config space after FEATURES_OK (the ctrl-style
 * set-queue-pairs command). Writes above the offered maximum are a
 * contained guest fault and clamp.
 */
struct VirtioNetConfig
{
    std::array<std::uint8_t, 6> mac{};
    std::uint16_t status = 1; // VIRTIO_NET_S_LINK_UP
    std::uint16_t maxVirtqueuePairs = 1;
    std::uint16_t currPairs = 1;

    static constexpr Addr macOffset = 0;
    static constexpr Addr statusOffset = 6;
    static constexpr Addr maxPairsOffset = 8;
    static constexpr Addr currPairsOffset = 10;
};

} // namespace virtio
} // namespace bmhive

#endif // BMHIVE_VIRTIO_VIRTIO_NET_HH
