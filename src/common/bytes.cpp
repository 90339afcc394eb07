#include "common/bytes.hpp"

#include "common/crc32.hpp"

namespace udb {

namespace {
constexpr std::size_t kSealedHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kSealedFooterBytes = 4;
}  // namespace

Status read_magic_version(ByteReader& r, const Magic& magic,
                          std::uint32_t version, const std::string& what) {
  char got[4];
  std::uint32_t v = 0;
  if (!r.raw(got, sizeof got) || std::memcmp(got, magic, sizeof got) != 0)
    return DataLossError(what + ": bad magic (not a " +
                         std::string(magic, sizeof magic) + " file)");
  if (!r.u32(v) || v != version)
    return DataLossError(what + ": unsupported version " + std::to_string(v) +
                         " (this build reads version " +
                         std::to_string(version) + ")");
  return Status::Ok();
}

std::vector<std::uint8_t> seal(const Magic& magic, std::uint32_t version,
                               std::span<const std::uint8_t> payload) {
  ByteWriter out;
  out.raw(magic, sizeof magic);
  out.u32(version);
  out.u64(payload.size());
  out.raw(payload.data(), payload.size());
  out.u32(crc32(payload.data(), payload.size()));
  return out.take();
}

StatusOr<std::span<const std::uint8_t>> open_sealed(
    std::span<const std::uint8_t> bytes, const Magic& magic,
    std::uint32_t version, const std::string& what) {
  if (bytes.size() < kSealedHeaderBytes + kSealedFooterBytes)
    return DataLossError(what + ": too small (" +
                         std::to_string(bytes.size()) +
                         " bytes) to hold a header");
  ByteReader header(bytes.first(kSealedHeaderBytes));
  if (Status s = read_magic_version(header, magic, version, what); !s.ok())
    return s;
  std::uint64_t payload_bytes = 0;
  (void)header.u64(payload_bytes);  // in range: the size was checked above
  const std::size_t held =
      bytes.size() - kSealedHeaderBytes - kSealedFooterBytes;
  if (payload_bytes != held)
    return DataLossError(what + ": size mismatch (header claims " +
                         std::to_string(payload_bytes) +
                         " payload bytes, file holds " +
                         std::to_string(held) + ") — truncated or padded");
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kSealedHeaderBytes, held);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.last(kSealedFooterBytes).data(),
              sizeof stored_crc);
  if (crc32(payload.data(), payload.size()) != stored_crc)
    return DataLossError(what + ": checksum mismatch — corrupted");
  return payload;
}

}  // namespace udb
