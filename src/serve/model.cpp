#include "serve/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>

#include "core/incremental.hpp"
#include "obs/metrics.hpp"

namespace udb::serve {

namespace {

// FNV-1a 64-bit over the coordinate bytes: the key of the exact-match
// table. A hash, not a checksum — collisions are resolved by comparing the
// coordinates; integrity checks use CRC-32 (common/crc32.hpp).
std::uint64_t point_hash(const double* p, std::size_t dim) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(p);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < dim * sizeof(double); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

StatusOr<std::shared_ptr<const ClusterModel>> ClusterModel::build(
    ModelSnapshot snap, ThreadPool* pool, RunGuard* guard) {
  std::shared_ptr<ClusterModel> m(new ClusterModel(std::move(snap)));
  try {
    m->num_clusters_ = m->snap_.result.num_clusters();
    const Dataset& ds = m->snap_.data;
    m->exact_.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const auto id = static_cast<PointId>(i);
      m->exact_.emplace(point_hash(ds.ptr(id), ds.dim()), id);
    }
    MuRTree::Config cfg;
    cfg.two_eps_rule = m->snap_.two_eps_rule;
    cfg.guard = guard;
    m->tree_ = std::make_unique<MuRTree>(ds, m->snap_.params.eps, cfg, pool);
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError(
        "ClusterModel::build: allocation failed rebuilding the index");
  }
  return std::shared_ptr<const ClusterModel>(std::move(m));
}

Classify ClusterModel::classify_impl(std::span<const double> q,
                                     bool& performed) const {
  const Dataset& ds = snap_.data;
  const ClusteringResult& res = snap_.result;

  // Fast path: bitwise-identical dataset point — answer from the stored
  // clustering without touching the index. Lowest id wins for determinism
  // (bitwise-duplicate points share a neighborhood, so any of them is a
  // faithful answer; ties in the multimap are iteration-order dependent).
  PointId hit = kInvalidPoint;
  const auto [lo, hi] = exact_.equal_range(point_hash(q.data(), ds.dim()));
  for (auto it = lo; it != hi; ++it)
    if (std::memcmp(ds.ptr(it->second), q.data(),
                    ds.dim() * sizeof(double)) == 0 &&
        it->second < hit)
      hit = it->second;
  if (hit != kInvalidPoint) {
    performed = false;
    return Classify{res.label[hit], res.kind(hit), /*exact_match=*/true,
                    res.is_core[hit] != 0, /*neighbors=*/0};
  }

  // One exact strict-eps search answers everything else: the neighbor count,
  // the nearest core point, and any distance-0 twin the hash missed (e.g.
  // -0.0 vs +0.0 coordinate bytes).
  performed = true;
  std::uint32_t count = 0;
  PointId zero = kInvalidPoint;
  PointId best_core = kInvalidPoint;
  double best_d2 = std::numeric_limits<double>::infinity();
  tree_->query_neighborhood(q, snap_.params.eps, [&](PointId id, double d2) {
    ++count;
    if (d2 == 0.0 && id < zero) zero = id;
    if (res.is_core[id] != 0 &&
        (d2 < best_d2 || (d2 == best_d2 && id < best_core))) {
      best_d2 = d2;
      best_core = id;
    }
  });

  if (zero != kInvalidPoint)
    return Classify{res.label[zero], res.kind(zero), /*exact_match=*/true,
                    res.is_core[zero] != 0, count};

  Classify out;
  out.neighbors = count;
  out.would_be_core = count + 1 >= snap_.params.min_pts;
  if (best_core != kInvalidPoint) {
    out.label = res.label[best_core];
    out.kind = PointKind::Border;
  }
  return out;
}

StatusOr<Classify> ClusterModel::classify(std::span<const double> q,
                                          obs::MetricsRegistry* metrics) const {
  if (q.size() != dim())
    return InvalidArgumentError("classify: query has " +
                                std::to_string(q.size()) +
                                " coordinates, model dim is " +
                                std::to_string(dim()));
  bool performed = false;
  Classify out = classify_impl(q, performed);
  if (metrics != nullptr) {
    metrics->add(obs::Counter::kServeClassifyPoints);
    metrics->add(performed ? obs::Counter::kServeClassifyPerformed
                           : obs::Counter::kServeClassifyAvoidedExact);
  }
  return out;
}

StatusOr<std::vector<Classify>> ClusterModel::classify_batch(
    std::span<const double> coords, std::size_t count,
    obs::MetricsRegistry* metrics, ThreadPool* pool, RunGuard* guard) const {
  if (coords.size() != count * dim())
    return InvalidArgumentError(
        "classify_batch: " + std::to_string(coords.size()) +
        " coordinates is not " + std::to_string(count) + " points of dim " +
        std::to_string(dim()));
  std::vector<Classify> out(count);
  try {
    // Chunked even when sequential: with a guard armed, the per-chunk
    // checkpoint bounds how far past a deadline a big batch can run.
    constexpr std::size_t kChunk = 64;
    parallel_for_chunked(
        pool, count, kChunk,
        [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t i = begin; i < end; ++i) {
            bool performed = false;
            out[i] =
                classify_impl({coords.data() + i * dim(), dim()}, performed);
            if (metrics != nullptr) {
              metrics->add(obs::Counter::kServeClassifyPoints);
              metrics->add(performed ? obs::Counter::kServeClassifyPerformed
                                     : obs::Counter::kServeClassifyAvoidedExact);
            }
          }
        },
        guard);
  } catch (const StatusError& e) {
    return e.status();
  }
  return out;
}

StatusOr<std::vector<std::pair<PointId, double>>> ClusterModel::neighbors(
    std::span<const double> q, double radius,
    obs::MetricsRegistry* metrics) const {
  if (q.size() != dim())
    return InvalidArgumentError("neighbors: query has " +
                                std::to_string(q.size()) +
                                " coordinates, model dim is " +
                                std::to_string(dim()));
  if (!(radius > 0.0) || !std::isfinite(radius))
    return InvalidArgumentError("neighbors: radius must be finite and > 0");
  std::vector<std::pair<PointId, double>> out;
  tree_->query_neighborhood(q, radius, out);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  if (metrics != nullptr) metrics->add(obs::Counter::kServeNeighborQueries);
  return out;
}

StatusOr<PointInfo> ClusterModel::point_info(
    std::uint64_t id, obs::MetricsRegistry* metrics) const {
  if (id >= size())
    return NotFoundError("point_info: id " + std::to_string(id) +
                         " out of range (model holds " +
                         std::to_string(size()) + " points)");
  const auto p = static_cast<PointId>(id);
  if (metrics != nullptr) metrics->add(obs::Counter::kServePointInfoLookups);
  return PointInfo{snap_.result.label[p], snap_.result.kind(p),
                   snap_.result.is_core[p] != 0};
}

void ServedModel::refresh(std::shared_ptr<const ClusterModel> m,
                          obs::MetricsRegistry* metrics) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    model_.swap(m);
  }
  // The old model, now in `m`, is released outside the lock.
  if (metrics != nullptr) metrics->add(obs::Counter::kServeModelRefreshes);
}

StatusOr<std::shared_ptr<const ClusterModel>> model_from_stream(
    const IncrementalMuDbscan& engine, ThreadPool* pool, RunGuard* guard) {
  if (engine.size() == 0)
    return InvalidArgumentError(
        "model_from_stream: nothing ingested yet — an empty model cannot "
        "serve");
  ModelSnapshot snap;
  try {
    snap.result = engine.result();  // exact incremental labels (canonical)
    snap.data = engine.survivors();
  } catch (const StatusError& e) {
    return e.status();
  }
  snap.params = engine.params();
  snap.two_eps_rule = true;
  return ClusterModel::build(std::move(snap), pool, guard);
}

Status save_model(const ClusterModel& model, const std::string& path) {
  return save_model(model.snap_, path);
}

}  // namespace udb::serve
