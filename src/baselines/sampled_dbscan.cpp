#include "baselines/sampled_dbscan.hpp"

#include <cmath>
#include <stdexcept>

#include "baselines/uf_labels.hpp"
#include "common/rng.hpp"
#include "index/rtree.hpp"

namespace udb {

namespace {
constexpr std::size_t kCheckStride = 2048;
}  // namespace

ClusteringResult sampled_dbscan(const Dataset& ds, const DbscanParams& params,
                                double rho, std::uint64_t seed,
                                SampledDbscanStats* stats, RunGuard* guard) {
  if (!(rho > 0.0) || rho > 1.0)
    throw std::invalid_argument("sampled_dbscan: rho must be in (0, 1]");
  const std::size_t n = ds.size();
  SampledDbscanStats local_stats;

  // Charge the per-point flag/label structures up front; the sample index is
  // charged after it is built (its size depends on the rho draw).
  ScopedCharge flags_charge;
  if (guard)
    flags_charge.acquire_throw(guard, n * (2 + sizeof(PointId)),
                               "sampled_dbscan flags + union-find");

  // rho-sample of the points; only sampled points enter the index, so every
  // neighborhood count is an estimate count/rho.
  Rng rng(seed);
  std::vector<PointId> sample;
  std::vector<std::uint8_t> in_sample(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < rho) {
      sample.push_back(static_cast<PointId>(i));
      in_sample[i] = 1;
    }
  }
  local_stats.sample_size = sample.size();

  if (guard) guard->check_throw("sampled_dbscan index build");
  std::vector<std::pair<const double*, PointId>> items;
  items.reserve(sample.size());
  for (PointId p : sample) items.emplace_back(ds.ptr(p), p);
  const RTree tree = RTree::bulk_load_str(ds.dim(), std::move(items));
  ScopedCharge tree_charge;
  if (guard)
    tree_charge.acquire_throw(guard, tree.memory_bytes(),
                              "sampled_dbscan sample index");

  UnionFind uf(n);
  std::vector<std::uint8_t> is_core(n, 0), assigned(n, 0);
  std::vector<PointId> nbhd;
  const double scale = 1.0 / rho;

  for (std::size_t i = 0; i < n; ++i) {
    if (guard && i % kCheckStride == 0)
      guard->check_throw("sampled_dbscan query sweep");
    const PointId p = static_cast<PointId>(i);
    nbhd.clear();
    tree.query_ball(ds.point(p), params.eps, nbhd);
    ++local_stats.queries;
    // Estimated neighborhood size; the point itself always counts once.
    double est = static_cast<double>(nbhd.size()) * scale;
    if (!in_sample[p]) est += 1.0;
    if (est < static_cast<double>(params.min_pts)) {
      if (!assigned[p]) {
        for (PointId q : nbhd) {
          if (is_core[q]) {
            uf.union_sets(q, p);
            assigned[p] = 1;
            break;
          }
        }
      }
      continue;
    }
    is_core[p] = 1;
    assigned[p] = 1;
    for (PointId q : nbhd) {
      if (is_core[q]) {
        uf.union_sets(p, q);
      } else if (!assigned[q]) {
        uf.union_sets(p, q);
        assigned[q] = 1;
      }
    }
  }

  if (stats) *stats = local_stats;
  return extract_labels(uf, std::move(is_core), assigned);
}

}  // namespace udb
