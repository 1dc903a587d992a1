/**
 * @file
 * On-the-wire serialization of cloud::Packet metadata into guest
 * buffers, plus helpers backends use to move packets through
 * descriptor chains. The metadata really travels through simulated
 * memory — through vrings, IO-Bond DMA syncs, and backend copies —
 * so a corrupted path shows up as a corrupted packet in tests.
 */

#ifndef BMHIVE_GUEST_PACKET_WIRE_HH
#define BMHIVE_GUEST_PACKET_WIRE_HH

#include <cstddef>

#include "cloud/packet.hh"
#include "mem/guest_memory.hh"
#include "virtio/virtqueue.hh"

namespace bmhive {
namespace guest {

/** Serialized packet metadata size (fits any frame >= 64B). The
 *  frame checksum travels with the metadata, so a corruption
 *  anywhere on the memory path lands in verifiable bytes. */
constexpr Bytes packetWireBytes = 48;

// The metadata moves as one record: cloud::Packet is laid out as
// the wire format (five 64-bit words, then the checksum and flow
// sharing the last word so the format fits the rx buffers guests
// already post).
static_assert(sizeof(cloud::Packet) == packetWireBytes &&
              offsetof(cloud::Packet, seq) == 32 &&
              offsetof(cloud::Packet, csum) == 40 &&
              offsetof(cloud::Packet, flow) == 44);

/** Write packet metadata at @p a. */
inline void
packPacket(GuestMemory &m, Addr a, const cloud::Packet &p)
{
    m.store(a, p);
}

/** Read packet metadata from @p a. */
inline cloud::Packet
unpackPacket(const GuestMemory &m, Addr a)
{
    return m.load<cloud::Packet>(a);
}

/**
 * Device-side helper: place a received packet into the writable
 * segments of an rx chain, preceded by a virtio_net_hdr.
 * @return bytes written, or 0 if the chain is too small.
 */
std::uint32_t writePacketToRxChain(GuestMemory &m,
                                   const virtio::DescChain &chain,
                                   const cloud::Packet &p);

/**
 * Device-side helper: extract the packet from a tx chain (skipping
 * the leading virtio_net_hdr).
 * @return the packet; ok=false if malformed.
 */
struct TxExtract
{
    bool ok = false;
    cloud::Packet pkt;
};
TxExtract readPacketFromTxChain(const GuestMemory &m,
                                const virtio::DescChain &chain);

} // namespace guest
} // namespace bmhive

#endif // BMHIVE_GUEST_PACKET_WIRE_HH
