#include "guest/packet_wire.hh"

#include "virtio/virtio_net.hh"

namespace bmhive {
namespace guest {

std::uint32_t
writePacketToRxChain(GuestMemory &m, const virtio::DescChain &chain,
                     const cloud::Packet &p)
{
    // The device needs hdr + metadata contiguously in the first
    // writable segment (our guests post single-segment rx buffers).
    for (const auto &seg : chain.segs) {
        if (!seg.deviceWrites)
            continue;
        Bytes need = virtio::VirtioNetHdr::wireSize + packetWireBytes;
        if (seg.len < need)
            return 0;
        virtio::VirtioNetHdr hdr;
        hdr.numBuffers = 1;
        hdr.writeTo(m, seg.addr);
        packPacket(m, seg.addr + virtio::VirtioNetHdr::wireSize, p);
        return std::uint32_t(virtio::VirtioNetHdr::wireSize +
                             p.len);
    }
    return 0;
}

TxExtract
readPacketFromTxChain(const GuestMemory &m,
                      const virtio::DescChain &chain)
{
    TxExtract out;
    for (const auto &seg : chain.segs) {
        if (seg.deviceWrites)
            continue;
        Bytes need = virtio::VirtioNetHdr::wireSize + packetWireBytes;
        if (seg.len < need)
            return out;
        out.pkt = unpackPacket(
            m, seg.addr + virtio::VirtioNetHdr::wireSize);
        out.ok = true;
        return out;
    }
    return out;
}

} // namespace guest
} // namespace bmhive
