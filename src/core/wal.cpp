#include "core/wal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/crc32.hpp"

namespace udb {

namespace {

std::vector<std::uint8_t> encode_wal_header(std::size_t dim,
                                            std::uint64_t epoch) {
  ByteWriter w;
  w.raw(kWalMagic, sizeof kWalMagic);
  w.u32(kWalVersion);
  w.u64(dim);
  w.u64(epoch);
  return w.take();
}

struct WalScan {
  std::size_t dim = 0;
  std::uint64_t epoch = 0;
  std::vector<double> coords;
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> counts;
  std::vector<std::uint8_t> types;
  std::uint64_t records = 0;
  std::size_t committed_bytes = 0;  // header + every committed record
  std::uint64_t torn_bytes = 0;
};

// Walks the byte image, accepting the longest valid prefix. Only header
// problems are errors: a bad record merely ends the committed prefix, because
// that is exactly what a crash mid-append leaves behind.
StatusOr<WalScan> scan_wal(std::span<const std::uint8_t> bytes,
                           std::size_t expected_dim,
                           const std::string& origin) {
  if (bytes.size() < kWalHeaderBytes)
    return DataLossError("wal: " + origin + " too small to hold a header (" +
                         std::to_string(bytes.size()) + " bytes)");
  ByteReader h(bytes.subspan(0, kWalHeaderBytes));
  if (Status s =
          read_magic_version(h, kWalMagic, kWalVersion, "wal: " + origin);
      !s.ok())
    return s;
  std::uint64_t dim = 0;
  std::uint64_t epoch = 0;
  (void)h.u64(dim);  // in range: the size was checked above
  (void)h.u64(epoch);
  if (dim == 0 || dim > std::numeric_limits<std::size_t>::max() / sizeof(double))
    return DataLossError("wal: " + origin + " header has absurd dim " +
                         std::to_string(dim));
  if (expected_dim != 0 && dim != expected_dim)
    return DataLossError("wal: " + origin + " holds dim-" +
                         std::to_string(dim) + " points, expected dim " +
                         std::to_string(expected_dim));

  WalScan out;
  out.dim = static_cast<std::size_t>(dim);
  out.epoch = epoch;
  const std::size_t fixed = 17;  // type byte, start_index, count
  std::size_t off = kWalHeaderBytes;
  while (bytes.size() - off >= 8) {
    std::uint32_t len = 0, stored_crc = 0;
    std::memcpy(&len, bytes.data() + off, 4);
    std::memcpy(&stored_crc, bytes.data() + off + 4, 4);
    if (len < fixed || len > bytes.size() - off - 8) break;  // torn frame
    const std::uint8_t* payload = bytes.data() + off + 8;
    if (crc32(payload, len) != stored_crc) break;  // torn / rotted
    const std::uint8_t type = payload[0];
    std::uint64_t start = 0, count = 0;
    std::memcpy(&start, payload + 1, 8);
    std::memcpy(&count, payload + 9, 8);
    // CRC-valid but inconsistent framing still ends the prefix: it cannot
    // have come from WalWriter, so nothing after it is trustworthy either.
    if (type > static_cast<std::uint8_t>(WalRecordType::kTombstone) ||
        count == 0 || count > (len - fixed) / (out.dim * sizeof(double)) ||
        fixed + count * out.dim * sizeof(double) != len)
      break;
    const std::size_t prev = out.coords.size();
    out.coords.resize(prev + static_cast<std::size_t>(count) * out.dim);
    std::memcpy(out.coords.data() + prev, payload + fixed,
                static_cast<std::size_t>(count) * out.dim * sizeof(double));
    // WalWriter::append refuses non-finite coordinates, so an insert record
    // holding one ends the prefix too (tombstones may hold any bits).
    if (type == static_cast<std::uint8_t>(WalRecordType::kInsert) &&
        !std::all_of(out.coords.begin() + static_cast<std::ptrdiff_t>(prev),
                     out.coords.end(),
                     [](double v) { return std::isfinite(v); })) {
      out.coords.resize(prev);
      break;
    }
    out.starts.push_back(start);
    out.counts.push_back(count);
    out.types.push_back(type);
    ++out.records;
    off += 8 + len;
  }
  out.committed_bytes = off;
  out.torn_bytes = bytes.size() - off;
  return out;
}

}  // namespace

WalWriter::~WalWriter() {
  if (file_.is_open()) (void)file_.close();
  release_charge();
}

WalWriter::WalWriter(WalWriter&& o) noexcept
    : path_(std::move(o.path_)),
      dim_(o.dim_),
      cfg_(o.cfg_),
      file_(std::move(o.file_)),
      records_(o.records_),
      bytes_(o.bytes_),
      next_start_(o.next_start_),
      epoch_(o.epoch_),
      charged_bytes_(o.charged_bytes_),
      open_(o.open_) {
  o.charged_bytes_ = 0;
  o.open_ = false;
}

WalWriter& WalWriter::operator=(WalWriter&& o) noexcept {
  if (this != &o) {
    if (file_.is_open()) (void)file_.close();
    release_charge();
    path_ = std::move(o.path_);
    dim_ = o.dim_;
    cfg_ = o.cfg_;
    file_ = std::move(o.file_);
    records_ = o.records_;
    bytes_ = o.bytes_;
    next_start_ = o.next_start_;
    epoch_ = o.epoch_;
    charged_bytes_ = o.charged_bytes_;
    open_ = o.open_;
    o.charged_bytes_ = 0;
    o.open_ = false;
  }
  return *this;
}

void WalWriter::release_charge() noexcept {
  if (cfg_.guard != nullptr && charged_bytes_ != 0)
    cfg_.guard->release(charged_bytes_);
  charged_bytes_ = 0;
}

StatusOr<WalWriter> WalWriter::open(const std::string& path, std::size_t dim,
                                    WalConfig cfg) {
  if (dim == 0) return InvalidArgumentError("wal: dim must be > 0");

  WalWriter w;
  w.path_ = path;
  w.dim_ = dim;
  w.cfg_ = cfg;

  auto bytes = vfs::read_file(path);
  if (bytes.ok()) {
    auto scan = scan_wal(std::span<const std::uint8_t>(*bytes), dim, path);
    if (!scan.ok()) return scan.status();
    if (scan->torn_bytes != 0) {
      // Cut the torn tail back to the committed prefix with an atomic
      // rewrite, so fresh appends always extend valid records.
      Status s = vfs::write_file_atomic(path, bytes->data(),
                                        scan->committed_bytes);
      if (!s.ok()) return s;
    }
    w.records_ = scan->records;
    w.bytes_ = scan->committed_bytes;
    w.epoch_ = scan->epoch;
    // Contiguity resumes from the last committed *insert* record; tombstones
    // sit outside the insert chain.
    for (std::size_t r = scan->records; r-- > 0;) {
      if (scan->types[r] ==
          static_cast<std::uint8_t>(WalRecordType::kInsert)) {
        w.next_start_ = scan->starts[r] + scan->counts[r];
        break;
      }
    }
    for (const std::uint8_t t : scan->types)
      if (t == static_cast<std::uint8_t>(WalRecordType::kInsert))
        ++w.insert_records_;
  } else if (bytes.status().code() == StatusCode::kNotFound) {
    const std::vector<std::uint8_t> header = encode_wal_header(dim, 0);
    Status s = vfs::write_file_atomic(path, header.data(), header.size());
    if (!s.ok()) return s;
    w.bytes_ = header.size();
  } else {
    return bytes.status();
  }

  if (cfg.guard != nullptr) {
    Status s = cfg.guard->try_charge(static_cast<std::size_t>(w.bytes_),
                                     "wal_open");
    if (!s.ok()) return s;
    w.charged_bytes_ = static_cast<std::size_t>(w.bytes_);
  }

  auto f = vfs::File::open_append(path);
  if (!f.ok()) return f.status();
  w.file_ = std::move(*f);
  w.open_ = true;
  return w;
}

Status WalWriter::append(std::uint64_t start_index,
                         std::span<const double> coords) {
  if (!open_)
    return InternalError("wal: append on a closed or failed writer for " +
                         path_);
  if (coords.empty() || coords.size() % dim_ != 0)
    return InvalidArgumentError(
        "wal: append of " + std::to_string(coords.size()) +
        " values is not a non-zero multiple of dim " + std::to_string(dim_));
  if (insert_records_ != 0 && start_index != next_start_)
    return InvalidArgumentError(
        "wal: append at stream index " + std::to_string(start_index) +
        " breaks contiguity (log ends at " + std::to_string(next_start_) +
        ")");
  for (double v : coords)
    if (!std::isfinite(v))
      return InvalidArgumentError("wal: non-finite coordinate in append");
  return emit_record(WalRecordType::kInsert, start_index, coords);
}

Status WalWriter::append_delete(std::span<const double> coords) {
  if (!open_)
    return InternalError("wal: append_delete on a closed or failed writer " +
                         path_);
  if (coords.empty() || coords.size() % dim_ != 0)
    return InvalidArgumentError(
        "wal: append_delete of " + std::to_string(coords.size()) +
        " values is not a non-zero multiple of dim " + std::to_string(dim_));
  // No finiteness check: a tombstone names bytes already in the stream.
  return emit_record(WalRecordType::kTombstone, 0, coords);
}

Status WalWriter::emit_record(WalRecordType type, std::uint64_t start_index,
                              std::span<const double> coords) {
  ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(type));
  payload.u64(start_index);
  payload.u64(coords.size() / dim_);
  payload.raw(coords.data(), coords.size() * sizeof(double));
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.data().data(), payload.size()));
  frame.raw(payload.data().data(), payload.size());

  // Charge before anything hits the disk: a budget refusal must leave the
  // log byte-identical, so the caller can snapshot+reset and retry.
  if (cfg_.guard != nullptr) {
    Status s = cfg_.guard->try_charge(frame.size(), "wal_append");
    if (!s.ok()) return s;
  }

  Status s = file_.write(frame.data().data(), frame.size());
  if (s.ok() && cfg_.sync_each_append) s = file_.sync();
  if (!s.ok()) {
    // The on-disk tail is now suspect (possibly torn). Fail the writer hard;
    // reopening trims the tail back to the committed prefix.
    if (cfg_.guard != nullptr) cfg_.guard->release(frame.size());
    (void)file_.close();
    open_ = false;
    return s;
  }
  charged_bytes_ += frame.size();
  bytes_ += frame.size();
  if (type == WalRecordType::kInsert) {
    next_start_ = start_index + coords.size() / dim_;
    ++insert_records_;
  }
  ++records_;
  return Status::Ok();
}

Status WalWriter::sync() {
  if (!open_)
    return InternalError("wal: sync on a closed or failed writer for " +
                         path_);
  return file_.sync();
}

Status WalWriter::reset(std::uint64_t epoch) {
  if (!open_)
    return InternalError("wal: reset on a closed or failed writer for " +
                         path_);
  Status s = file_.close();
  open_ = false;
  if (!s.ok()) return s;

  const std::vector<std::uint8_t> header = encode_wal_header(dim_, epoch);
  s = vfs::write_file_atomic(path_, header.data(), header.size());
  if (!s.ok()) return s;

  auto f = vfs::File::open_append(path_);
  if (!f.ok()) return f.status();
  file_ = std::move(*f);
  open_ = true;
  records_ = 0;
  insert_records_ = 0;
  bytes_ = header.size();
  next_start_ = 0;
  epoch_ = epoch;
  if (cfg_.guard != nullptr && charged_bytes_ > header.size()) {
    cfg_.guard->release(charged_bytes_ - header.size());
    charged_bytes_ = header.size();
  }
  return Status::Ok();
}

Status WalWriter::close() {
  Status s = Status::Ok();
  if (file_.is_open()) s = file_.close();
  open_ = false;
  release_charge();
  return s;
}

StatusOr<WalReplay> replay_wal(const std::string& path,
                               std::size_t expected_dim) {
  auto bytes = vfs::read_file(path);
  if (!bytes.ok()) return bytes.status();
  auto scan = scan_wal(std::span<const std::uint8_t>(*bytes), expected_dim,
                       path);
  if (!scan.ok()) return scan.status();
  WalReplay out;
  out.dim = scan->dim;
  out.coords = std::move(scan->coords);
  out.starts = std::move(scan->starts);
  out.counts = std::move(scan->counts);
  out.types = std::move(scan->types);
  out.epoch = scan->epoch;
  out.records = scan->records;
  out.torn_bytes = scan->torn_bytes;
  return out;
}

}  // namespace udb
