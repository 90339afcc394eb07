#include "common/io.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/bytes.hpp"
#include "common/vfs.hpp"

namespace udb {

namespace {
constexpr std::array<char, 4> kMagic = {'U', 'D', 'B', '1'};
}

Status write_csv(const Dataset& ds, const std::string& path) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const double* p = ds.ptr(static_cast<PointId>(i));
    for (std::size_t k = 0; k < ds.dim(); ++k) {
      if (k) out << ',';
      out << p[k];
    }
    out << '\n';
  }
  const std::string text = std::move(out).str();
  return vfs::write_file_atomic(path, text.data(), text.size());
}

Status write_binary(const Dataset& ds, const std::string& path) {
  ByteWriter out;
  out.raw(kMagic.data(), kMagic.size());
  out.u64(ds.dim());
  out.u64(ds.size());
  out.raw(ds.raw().data(), ds.raw().size() * sizeof(double));
  return vfs::write_file_atomic(path, out.data().data(), out.size());
}

StatusOr<Dataset> load_csv(const std::string& path, const ReadOptions& opts,
                           ReadReport* report) {
  // Through the VFS: the read is chunked and fault-injectable, and an
  // injected hard truncation shows up here as a short buffer — which the
  // row-wise validation below then quarantines or rejects, never mis-parses.
  auto bytes = vfs::read_file(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound)
      return NotFoundError("load_csv: cannot open " + path);
    return bytes.status();
  }
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(bytes->data()),
                  bytes->size()));
  std::vector<double> coords;
  std::vector<double> row;
  std::size_t dim = 0;
  ReadReport rep;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    for (char& c : line)
      if (c == ',') c = ' ';
    std::istringstream ss(line);
    row.clear();
    bool bad = false;
    double v = 0.0;
    while (ss >> v) {
      if (!std::isfinite(v)) bad = true;
      row.push_back(v);
    }
    if (!ss.eof()) bad = true;          // unparseable token somewhere
    if (row.empty() && !bad) continue;  // whitespace-only line, not a row
    if (dim == 0 && !bad) dim = row.size();
    if (!bad && row.size() != dim) bad = true;  // short/long row
    if (bad) {
      if (!opts.quarantine)
        return DataLossError("load_csv: bad row at line " +
                             std::to_string(lineno) + " in " + path);
      ++rep.rows_skipped;
      continue;
    }
    coords.insert(coords.end(), row.begin(), row.end());
    ++rep.rows_read;
  }
  if (dim == 0)
    return DataLossError("load_csv: no valid data rows in " + path);
  const std::size_t total = rep.rows_read + rep.rows_skipped;
  if (rep.rows_skipped > 0 &&
      static_cast<double>(rep.rows_skipped) >
          opts.max_skip_fraction * static_cast<double>(total))
    return DataLossError(
        "load_csv: quarantined " + std::to_string(rep.rows_skipped) + " of " +
        std::to_string(total) + " rows in " + path +
        " (over max_skip_fraction)");
  if (report) *report = rep;
  return Dataset(dim, std::move(coords));
}

StatusOr<Dataset> load_binary(const std::string& path, const ReadOptions& opts,
                              ReadReport* report) {
  // Through the VFS: an injected hard truncation (or real torn write) hands
  // this codec a short buffer, and the row accounting below turns the missing
  // tail into quarantined rows instead of a mis-parse.
  auto file = vfs::read_file(path);
  if (!file.ok()) {
    if (file.status().code() == StatusCode::kNotFound)
      return NotFoundError("load_binary: cannot open " + path);
    return file.status();
  }
  const std::uint8_t* p = file->data();
  const std::size_t file_bytes = file->size();
  constexpr std::size_t kHeaderBytes = 4 + 8 + 8;
  if (file_bytes < 4 || std::memcmp(p, kMagic.data(), kMagic.size()) != 0)
    return DataLossError("load_binary: bad magic in " + path);
  if (file_bytes < kHeaderBytes)
    return DataLossError("load_binary: bad header in " + path);
  std::uint64_t dim = 0, count = 0;
  std::memcpy(&dim, p + 4, sizeof dim);
  std::memcpy(&count, p + 12, sizeof count);
  if (dim == 0) return DataLossError("load_binary: bad header in " + path);
  constexpr std::uint64_t kMaxElems =
      std::numeric_limits<std::size_t>::max() / sizeof(double);
  if (count != 0 && dim > kMaxElems / count)
    return DataLossError("load_binary: header overflows size_t in " + path);

  const std::uint64_t avail = file_bytes - kHeaderBytes;
  const std::uint64_t row_bytes = dim * sizeof(double);
  std::uint64_t readable = count;
  ReadReport rep;
  if (avail < count * row_bytes) {
    if (!opts.quarantine)
      return DataLossError(
          "load_binary: header implies more data than file holds in " + path);
    // Truncated tail: read the full rows that are present, quarantine the
    // rest (including a final partial row).
    readable = avail / row_bytes;
    rep.rows_skipped += static_cast<std::size_t>(count - readable);
  }

  std::vector<double> coords;
  coords.reserve(static_cast<std::size_t>(readable * dim));
  std::vector<double> row(static_cast<std::size_t>(dim));
  for (std::uint64_t i = 0; i < readable; ++i) {
    std::memcpy(row.data(), p + kHeaderBytes + i * row_bytes,
                static_cast<std::size_t>(row_bytes));
    bool bad = false;
    for (double v : row)
      if (!std::isfinite(v)) bad = true;
    if (bad) {
      if (!opts.quarantine)
        return DataLossError("load_binary: non-finite value in row " +
                             std::to_string(i) + " of " + path);
      ++rep.rows_skipped;
      continue;
    }
    coords.insert(coords.end(), row.begin(), row.end());
    ++rep.rows_read;
  }
  const std::size_t total = rep.rows_read + rep.rows_skipped;
  if (rep.rows_skipped > 0 &&
      static_cast<double>(rep.rows_skipped) >
          opts.max_skip_fraction * static_cast<double>(total))
    return DataLossError(
        "load_binary: quarantined " + std::to_string(rep.rows_skipped) +
        " of " + std::to_string(total) + " rows in " + path +
        " (over max_skip_fraction)");
  if (report) *report = rep;
  return Dataset(static_cast<std::size_t>(dim), std::move(coords));
}

}  // namespace udb
