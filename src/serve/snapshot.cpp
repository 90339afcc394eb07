#include "serve/snapshot.hpp"

#include <cmath>
#include <limits>

#include "common/bytes.hpp"
#include "common/vfs.hpp"

namespace udb::serve {

namespace {

// Layout (little-endian; see docs/SERVING.md):
//   magic[4] "UDBM" | u32 version | u64 payload_bytes
//   payload:
//     u64 dim | u64 n | f64 eps | u32 min_pts | u32 flags | u64 num_clusters
//     f64 coords[n*dim] | i64 labels[n] | u8 is_core[n]
//     u32 report_len | report_json bytes
//   u32 crc32(payload)
// The envelope is common/bytes.hpp's seal/open_sealed. Only flag bit 0 is
// written; other bits are ignored on read.
constexpr std::uint32_t kFlagTwoEpsRule = 1u << 0;

}  // namespace

StatusOr<std::vector<std::uint8_t>> serialize_model(const ModelSnapshot& snap) {
  const std::size_t n = snap.data.size();
  if (snap.result.label.size() != n || snap.result.is_core.size() != n)
    return InvalidArgumentError(
        "save_model: result arrays not sized to the dataset (labels " +
        std::to_string(snap.result.label.size()) + ", core flags " +
        std::to_string(snap.result.is_core.size()) + ", points " +
        std::to_string(n) + ")");
  if (snap.data.dim() == 0)
    return InvalidArgumentError("save_model: empty model (dim 0)");
  if (!(snap.params.eps > 0.0) || !std::isfinite(snap.params.eps) ||
      snap.params.min_pts == 0)
    return InvalidArgumentError("save_model: invalid params (eps " +
                                std::to_string(snap.params.eps) + ", minpts " +
                                std::to_string(snap.params.min_pts) + ")");
  if (snap.report_json.size() > std::numeric_limits<std::uint32_t>::max())
    return InvalidArgumentError("save_model: report_json too large");

  ByteWriter payload;
  payload.u64(snap.data.dim());
  payload.u64(n);
  payload.f64(snap.params.eps);
  payload.u32(snap.params.min_pts);
  payload.u32(snap.two_eps_rule ? kFlagTwoEpsRule : 0u);
  payload.u64(snap.result.num_clusters());
  payload.raw(snap.data.raw().data(), snap.data.raw().size() * sizeof(double));
  payload.raw(snap.result.label.data(),
              snap.result.label.size() * sizeof(std::int64_t));
  payload.raw(snap.result.is_core.data(), snap.result.is_core.size());
  payload.u32(static_cast<std::uint32_t>(snap.report_json.size()));
  payload.raw(snap.report_json.data(), snap.report_json.size());

  return seal(kSnapshotMagic, kSnapshotVersion, payload.data());
}

Status save_model(const ModelSnapshot& snap, const std::string& path) {
  auto bytes = serialize_model(snap);
  if (!bytes.ok()) return bytes.status();
  // Full crash-safe discipline (write tmp, fsync, rename, fsync dir): a
  // crash or full disk mid-save can never leave a truncated file under the
  // final name, and a previously good snapshot at `path` survives a failed
  // re-save — vfs::write_file_atomic removes the tmp on every failure path.
  return vfs::write_file_atomic(path, bytes->data(), bytes->size());
}

StatusOr<ModelSnapshot> load_model(const std::string& path) {
  auto bytes = vfs::read_file(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound)
      return NotFoundError("load_model: cannot open " + path);
    return bytes.status();
  }
  return parse_model(std::span<const std::uint8_t>(*bytes), path);
}

StatusOr<ModelSnapshot> parse_model(std::span<const std::uint8_t> bytes,
                                    const std::string& path) {
  auto payload = open_sealed(bytes, kSnapshotMagic, kSnapshotVersion,
                             "load_model: " + path);
  if (!payload.ok()) return payload.status();

  ByteReader r(*payload);
  std::uint64_t dim = 0, n = 0, num_clusters = 0;
  double eps = 0.0;
  std::uint32_t min_pts = 0, flags = 0;
  if (!r.u64(dim) || !r.u64(n) || !r.f64(eps) || !r.u32(min_pts) ||
      !r.u32(flags) || !r.u64(num_clusters))
    return DataLossError("load_model: truncated fixed header in " + path);

  if (dim == 0)
    return DataLossError("load_model: dim 0 in " + path);
  if (!(eps > 0.0) || !std::isfinite(eps) || min_pts == 0)
    return DataLossError("load_model: invalid params in " + path + " (eps " +
                         std::to_string(eps) + ", minpts " +
                         std::to_string(min_pts) + ")");
  constexpr std::uint64_t kMaxElems =
      std::numeric_limits<std::size_t>::max() / sizeof(double);
  if (n != 0 && dim > kMaxElems / n)
    return DataLossError("load_model: header overflows size_t in " + path);
  if (n > std::numeric_limits<PointId>::max())
    return DataLossError("load_model: point count exceeds PointId range in " +
                         path);

  std::vector<double> coords;
  std::vector<std::int64_t> labels;
  std::vector<std::uint8_t> is_core;
  if (!r.array(coords, static_cast<std::size_t>(dim * n)) ||
      !r.array(labels, static_cast<std::size_t>(n)) ||
      !r.array(is_core, static_cast<std::size_t>(n)))
    return DataLossError("load_model: truncated arrays in " + path);

  std::uint32_t report_len = 0;
  std::string report;
  if (!r.u32(report_len) || !r.str(report, report_len))
    return DataLossError("load_model: truncated report section in " + path);
  if (!r.done())
    return DataLossError("load_model: trailing bytes inside payload of " +
                         path);

  for (double v : coords)
    if (!std::isfinite(v))
      return DataLossError("load_model: non-finite coordinate in " + path);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::int64_t lab = labels[i];
    if (lab < kNoise || (num_clusters != 0 &&
                         lab >= static_cast<std::int64_t>(num_clusters)) ||
        (num_clusters == 0 && lab != kNoise))
      return DataLossError("load_model: label out of range at point " +
                           std::to_string(i) + " in " + path);
    if (is_core[i] > 1)
      return DataLossError("load_model: core flag not 0/1 at point " +
                           std::to_string(i) + " in " + path);
    if (is_core[i] == 1 && lab == kNoise)
      return DataLossError("load_model: core point labeled noise at point " +
                           std::to_string(i) + " in " + path);
  }

  ModelSnapshot snap;
  snap.data = Dataset(static_cast<std::size_t>(dim), std::move(coords));
  snap.params = DbscanParams{eps, min_pts};
  snap.result.label = std::move(labels);
  snap.result.is_core = std::move(is_core);
  snap.two_eps_rule = (flags & kFlagTwoEpsRule) != 0;
  snap.report_json = std::move(report);
  return snap;
}

}  // namespace udb::serve
