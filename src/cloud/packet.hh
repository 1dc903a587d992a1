/**
 * @file
 * Network packet representation used across the cloud substrate.
 *
 * Payload bytes are not carried — only sizes and timestamps — but
 * the I/O path that moves a packet (vrings, IO-Bond DMA, vSwitch)
 * is fully modelled, so a Packet's latency reflects every hop the
 * paper describes.
 */

#ifndef BMHIVE_CLOUD_PACKET_HH
#define BMHIVE_CLOUD_PACKET_HH

#include <cstdint>

#include "base/checksum.hh"
#include "base/units.hh"

namespace bmhive {
namespace cloud {

/** Flat L2 address; the vSwitch forwards on these. */
using MacAddr = std::uint64_t;

/** Minimal UDP-over-Ethernet frame sizes used by the workloads. */
constexpr Bytes ethHeaderBytes = 14;
constexpr Bytes ipUdpHeaderBytes = 28;
constexpr Bytes minFrameBytes = 64;

/** Frame length of a UDP datagram with @p payload bytes of data. */
constexpr Bytes
udpFrameBytes(Bytes payload)
{
    Bytes b = ethHeaderBytes + ipUdpHeaderBytes + payload;
    return b < minFrameBytes ? minFrameBytes : b;
}

/** Field order and widths are the 48-byte guest wire format
 *  (guest/packet_wire.hh copies the struct as one record). */
struct Packet
{
    MacAddr src = 0;
    MacAddr dst = 0;
    Bytes len = 0;       ///< frame length on the wire
    Tick created = 0;    ///< when the sender formed the packet
    std::uint64_t seq = 0; ///< sender-assigned sequence number
    /** Frame checksum sealed by the sending driver; every fabric
     *  stage re-verifies it (integrity layer). 0 = unsealed. */
    std::uint32_t csum = 0;
    /** Flow identity (the UDP port pair of the modelled frame).
     *  RSS hashes over (src, dst, flow) so one sender can spread
     *  distinct flows across a multi-queue NIC's rx queues. */
    std::uint32_t flow = 0;
};

/** CRC32C over the frame's invariant fields — what the FCS of the
 *  modelled frame would cover. The csum field itself is excluded. */
inline std::uint32_t
packetCsum(const Packet &p)
{
    std::uint32_t c = crc32cWord(p.src);
    c = crc32cWord(p.dst, c);
    c = crc32cWord(p.len, c);
    c = crc32cWord(p.created, c);
    c = crc32cWord(p.seq, c);
    c = crc32cWord(std::uint64_t(p.flow), c);
    return c;
}

/** Seal @p p (compute and store its checksum). */
inline void
sealPacket(Packet &p)
{
    p.csum = packetCsum(p);
}

/**
 * True unless the frame is provably corrupt. csum == 0 marks an
 * unsealed frame from a legacy sender (hand-built test packets,
 * vm-guest stacks) and passes unchecked; the bm-guest driver seals
 * every frame it transmits, so the whole bm datapath is covered.
 */
inline bool
packetCsumOk(const Packet &p)
{
    return p.csum == 0 || p.csum == packetCsum(p);
}

} // namespace cloud
} // namespace bmhive

#endif // BMHIVE_CLOUD_PACKET_HH
