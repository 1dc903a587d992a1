/**
 * @file
 * Checksum primitives for the end-to-end integrity layer: CRC32C
 * (the polynomial PCIe ECRC and iSCSI use) for per-transfer and
 * per-frame checks, and CRC16 with the T10-DIF polynomial for the
 * per-sector guard tags the block path carries.
 *
 * Both run on every protected transfer and sector, so they are on
 * the simulator's host hot path. They are portable slice-by-8 table
 * kernels: eight bytes per step through eight 256-entry tables, the
 * tables generated at compile time below. No intrinsics, no
 * runtime dispatch, and the same values on every host as the
 * bit-serial definitions (tests/integrity_test.cc keeps those as
 * oracles).
 */

#ifndef BMHIVE_BASE_CHECKSUM_HH
#define BMHIVE_BASE_CHECKSUM_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace bmhive {

namespace detail {

/** Reflected CRC32C tables: [0] is the classic byte table, [k]
 *  advances a byte's contribution through k more zero bytes. */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrc32cTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int b = 0; b < 8; ++b)
            c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

/** Non-reflected CRC16/T10-DIF tables, same layout. */
constexpr std::array<std::array<std::uint16_t, 256>, 8>
makeCrc16T10difTables()
{
    std::array<std::array<std::uint16_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint16_t c = std::uint16_t(i << 8);
        for (int b = 0; b < 8; ++b)
            c = std::uint16_t((c << 1) ^
                              ((c & 0x8000u) ? 0x8BB7u : 0u));
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = std::uint16_t((t[k - 1][i] << 8) ^
                                    t[0][t[k - 1][i] >> 8]);
    return t;
}

inline constexpr auto crc32cTables = makeCrc32cTables();
inline constexpr auto crc16T10difTables = makeCrc16T10difTables();

/** Little-endian 32-bit load; compilers fuse it into one move. */
inline std::uint32_t
load32le(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

/** Fold eight message bytes (as two little-endian words) into a
 *  pre-inverted CRC32C register. */
inline std::uint32_t
crc32cStep8(std::uint32_t crc, std::uint32_t lo, std::uint32_t hi)
{
    const auto &t = crc32cTables;
    lo ^= crc;
    return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
           t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
           t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
           t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

} // namespace detail

/** CRC32C (Castagnoli, reflected 0x82F63B78), seedable so checks
 *  over split buffers can chain: crc32c(b, n, crc32c(a, m)). */
inline std::uint32_t
crc32c(const std::uint8_t *data, std::size_t len,
       std::uint32_t seed = 0)
{
    const auto &t = detail::crc32cTables;
    std::uint32_t crc = ~seed;
    for (; len >= 8; data += 8, len -= 8) {
        crc = detail::crc32cStep8(crc, detail::load32le(data),
                                  detail::load32le(data + 4));
    }
    for (; len > 0; ++data, --len)
        crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

/** Fold one 64-bit word (as its 8 little-endian bytes) into a
 *  running CRC32C, for checksumming structured records field by
 *  field without staging a buffer. */
inline std::uint32_t
crc32cWord(std::uint64_t word, std::uint32_t seed = 0)
{
    return ~detail::crc32cStep8(~seed, std::uint32_t(word),
                                std::uint32_t(word >> 32));
}

/** CRC16 with the T10-DIF polynomial 0x8BB7 (non-reflected, zero
 *  seed): the guard tag of one 512-byte protection-interval. */
inline std::uint16_t
crc16T10dif(const std::uint8_t *data, std::size_t len)
{
    const auto &t = detail::crc16T10difTables;
    std::uint32_t crc = 0;
    // The 16-bit register folds into the first two bytes of each
    // 8-byte step; byte j's contribution is then table [7 - j].
    for (; len >= 8; data += 8, len -= 8) {
        crc = t[7][data[0] ^ (crc >> 8)] ^
              t[6][data[1] ^ (crc & 0xFFu)] ^ t[5][data[2]] ^
              t[4][data[3]] ^ t[3][data[4]] ^ t[2][data[5]] ^
              t[1][data[6]] ^ t[0][data[7]];
    }
    for (; len > 0; ++data, --len)
        crc = (crc << 8 & 0xFFFFu) ^ t[0][(crc >> 8) ^ *data];
    return std::uint16_t(crc);
}

} // namespace bmhive

#endif // BMHIVE_BASE_CHECKSUM_HH
