/**
 * @file
 * T10-DIF-style protection information for the block path: an
 * 8-byte tag per 512-byte sector, carrying a CRC16 guard over the
 * sector's bytes and a reference tag derived from the target LBA.
 * Tags are appended after the payload in the data segment, so they
 * travel through every stage that can corrupt the payload (vrings,
 * IO-Bond DMA, the storage fabric) and any stage can verify them.
 */

#ifndef BMHIVE_CLOUD_DIF_HH
#define BMHIVE_CLOUD_DIF_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "base/checksum.hh"
#include "base/units.hh"

namespace bmhive {
namespace cloud {

constexpr Bytes difSectorBytes = 512;
constexpr Bytes difTagBytes = 8;
constexpr Bytes difProtectedSectorBytes =
    difSectorBytes + difTagBytes;

/** Wire length of @p payload bytes with per-sector tags appended. */
constexpr Bytes
difWireBytes(Bytes payload)
{
    return payload + payload / difSectorBytes * difTagBytes;
}

/** Payload length carried by a tagged buffer of @p wire bytes. */
constexpr Bytes
difPayloadBytes(Bytes wire)
{
    return wire / difProtectedSectorBytes * difSectorBytes;
}

/** Tag of one 512-byte sector destined for @p lba. */
inline std::array<std::uint8_t, difTagBytes>
difTag(const std::uint8_t *sector, std::uint64_t lba)
{
    std::array<std::uint8_t, difTagBytes> t{};
    std::uint16_t guard = crc16T10dif(sector, difSectorBytes);
    t[0] = std::uint8_t(guard);
    t[1] = std::uint8_t(guard >> 8);
    // t[2..3]: application tag, unused.
    auto ref = std::uint32_t(lba);
    t[4] = std::uint8_t(ref);
    t[5] = std::uint8_t(ref >> 8);
    t[6] = std::uint8_t(ref >> 16);
    t[7] = std::uint8_t(ref >> 24);
    return t;
}

/**
 * Write the tag of every sector of the @p len payload bytes at
 * @p payload (a multiple of 512) to @p tags, which must have room
 * for len / 512 tags. @p tags may directly follow the payload, as
 * on the wire.
 */
inline void
difBuildTags(const std::uint8_t *payload, Bytes len,
             std::uint64_t lba, std::uint8_t *tags)
{
    std::size_t n = len / difSectorBytes;
    for (std::size_t i = 0; i < n; ++i) {
        auto t = difTag(payload + i * difSectorBytes, lba + i);
        std::copy(t.begin(), t.end(), tags + i * difTagBytes);
    }
}

/** Tags for every sector of @p payload (size multiple of 512). */
inline std::vector<std::uint8_t>
difBuildTags(const std::vector<std::uint8_t> &payload,
             std::uint64_t lba)
{
    std::vector<std::uint8_t> tags(payload.size() / difSectorBytes *
                                   difTagBytes);
    difBuildTags(payload.data(), payload.size(), lba, tags.data());
    return tags;
}

/**
 * Verify the @p len-byte payload+tags buffer at @p buf (payload
 * first, tags appended).
 * @return the first bad sector index, or -1 if the buffer is clean.
 *         A buffer whose size is not a whole number of protected
 *         sectors fails at sector 0.
 */
inline int
difCheck(const std::uint8_t *buf, Bytes len, std::uint64_t lba)
{
    std::size_t n = len / difProtectedSectorBytes;
    if (n * difProtectedSectorBytes != len)
        return 0;
    const std::uint8_t *tags = buf + n * difSectorBytes;
    for (std::size_t i = 0; i < n; ++i) {
        auto want = difTag(buf + i * difSectorBytes, lba + i);
        if (!std::equal(want.begin(), want.end(),
                        tags + i * difTagBytes))
            return int(i);
    }
    return -1;
}

} // namespace cloud
} // namespace bmhive

#endif // BMHIVE_CLOUD_DIF_HH
