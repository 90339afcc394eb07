// CRC-32 (IEEE 802.3, polynomial 0xEDB88320): the one checksum of every
// byte format the repo writes — wire frames (serve/protocol.hpp), model
// snapshots and the snapshot-store manifest (serve/snapshot.*,
// serve/snapstore.*), WAL records (core/wal.*) and distributed checkpoints
// (dist/checkpoint.*). CRC detects *every* burst error up to 32 bits, the
// corruption model of a flaky transport or a rotted sector. Table is built
// at compile time; the byte loop is fast enough for 64 MiB frames (one table
// lookup per byte) and needs no special hardware.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace udb {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* p,
                                         std::size_t n) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// Extends a finished CRC with more bytes: crc32_update(crc32(a, n), b, m)
// equals the CRC of the concatenation a ++ b. Lets the framer checksum
// (header ++ payload) without materializing the concatenation.
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                const std::uint8_t* p,
                                                std::size_t n) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace udb
