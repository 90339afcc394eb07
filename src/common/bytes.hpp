// Bounds-checked byte-buffer primitives shared by every binary codec (the
// wire protocol, the model snapshot, the snapshot-store MANIFEST, the WAL and
// the checkpoint spill), plus the one sealed-file envelope. Fixed-width
// little-endian scalars, memcpy'd native (every supported target is
// little-endian, matching the UDB1 dataset format in common/io.*).
//
// ByteWriter appends into a growing buffer; ByteReader consumes a read-only
// span and *never* reads past the end — every getter reports failure instead,
// so a truncated or hostile buffer surfaces as a clean decode error, never as
// an out-of-bounds read (the same quarantine discipline as load_binary).

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace udb {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool u8(std::uint8_t& v) { return raw(&v, sizeof v); }
  [[nodiscard]] bool u16(std::uint16_t& v) { return raw(&v, sizeof v); }
  [[nodiscard]] bool u32(std::uint32_t& v) { return raw(&v, sizeof v); }
  [[nodiscard]] bool u64(std::uint64_t& v) { return raw(&v, sizeof v); }
  [[nodiscard]] bool i64(std::int64_t& v) { return raw(&v, sizeof v); }
  [[nodiscard]] bool f64(double& v) { return raw(&v, sizeof v); }
  [[nodiscard]] bool raw(void* p, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(p, data_.data() + off_, n);
    off_ += n;
    return true;
  }
  // Reads `count` elements of trivially-copyable type T into `out` (resized).
  template <typename T>
  [[nodiscard]] bool array(std::vector<T>& out, std::size_t count) {
    if (remaining() / sizeof(T) < count) return false;  // overflow-safe
    out.resize(count);
    return count == 0 || raw(out.data(), count * sizeof(T));
  }
  [[nodiscard]] bool str(std::string& out, std::size_t count) {
    if (remaining() < count) return false;
    out.assign(reinterpret_cast<const char*>(data_.data() + off_), count);
    off_ += count;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - off_;
  }
  [[nodiscard]] bool done() const noexcept { return off_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
};

// ---- file headers and the sealed envelope --------------------------------
//
// Every persisted format opens with `magic[4] | u32 version`. The model
// snapshot (UDBM) and the checkpoint spill (UDBC) are whole-file blobs sealed
// as
//   magic[4] | u32 version | u64 payload_bytes | payload | u32 crc32(payload)
// and the file size must equal 16 + payload_bytes + 4 exactly, so a truncated
// tail or trailing garbage is rejected before any payload parsing. `what`
// names the file in every error ("load_model: /x/m.udbm"); every failure is
// DATA_LOSS.

using Magic = char[4];

// Consumes `magic | u32 version` from r and checks both.
[[nodiscard]] Status read_magic_version(ByteReader& r, const Magic& magic,
                                        std::uint32_t version,
                                        const std::string& what);

[[nodiscard]] std::vector<std::uint8_t> seal(
    const Magic& magic, std::uint32_t version,
    std::span<const std::uint8_t> payload);

// The payload of a sealed image (a view into `bytes`) once the header, the
// exact length and the CRC all check out.
[[nodiscard]] StatusOr<std::span<const std::uint8_t>> open_sealed(
    std::span<const std::uint8_t> bytes, const Magic& magic,
    std::uint32_t version, const std::string& what);

}  // namespace udb
