#include "baselines/qi_dbscan.hpp"

#include <cmath>
#include <deque>
#include <limits>

#include "common/simd.hpp"
#include "index/rtree.hpp"

namespace udb {

namespace {

// QIDBSCAN's expansion shortcut: from a core point's neighborhood, pick the
// neighbors closest to the 2d axis-direction points on the eps-extended
// boundary (p +- eps * e_k). Only these are queried during expansion.
void pick_representatives(const Dataset& ds, PointId p,
                          const std::vector<PointId>& nbhd, double eps,
                          std::vector<PointId>& out) {
  const std::size_t dim = ds.dim();
  const double* pp = ds.ptr(p);

  // Gather the neighborhood (minus p itself, preserving order) into a SoA
  // block once; each of the 2d axis targets then scans it with a single
  // dispatched SIMD kernel call. The first strictly-smaller distance wins,
  // exactly like the old per-candidate loop.
  std::vector<PointId> cand;
  cand.reserve(nbhd.size());
  for (PointId q : nbhd)
    if (q != p) cand.push_back(q);
  const std::size_t cnt = cand.size();
  if (cnt == 0) return;
  std::vector<double> block(cnt * dim);
  for (std::size_t i = 0; i < cnt; ++i) {
    const double* pt = ds.ptr(cand[i]);
    for (std::size_t k = 0; k < dim; ++k) block[k * cnt + i] = pt[k];
  }

  std::vector<double> target(dim), d2(cnt);
  for (std::size_t axis = 0; axis < dim; ++axis) {
    for (double sign : {1.0, -1.0}) {
      for (std::size_t k = 0; k < dim; ++k) target[k] = pp[k];
      target[axis] += sign * eps;
      sq_dist_block_soa(target.data(), block.data(), cnt, cnt, dim, d2.data());
      std::size_t best = 0;
      for (std::size_t i = 1; i < cnt; ++i)
        if (d2[i] < d2[best]) best = i;
      out.push_back(cand[best]);
    }
  }
}

}  // namespace

ClusteringResult qi_dbscan(const Dataset& ds, const DbscanParams& params,
                           QiDbscanStats* stats) {
  const std::size_t n = ds.size();
  QiDbscanStats local_stats;

  const RTree tree = RTree::bulk_load_str(ds);

  ClusteringResult res;
  res.label.assign(n, kNoise);
  res.is_core.assign(n, 0);
  std::vector<std::uint8_t> visited(n, 0);  // had its own query
  std::int64_t next_cluster = 0;
  std::vector<PointId> nbhd, reps;

  for (std::size_t i = 0; i < n; ++i) {
    const PointId p = static_cast<PointId>(i);
    // Points already absorbed into a cluster are never re-queried — this is
    // QIDBSCAN's query saving and simultaneously the reason it is not exact:
    // an absorbed member that is itself core may have reachable neighbors no
    // representative covers.
    if (visited[p] || res.label[p] != kNoise) continue;
    visited[p] = 1;
    nbhd.clear();
    tree.query_ball(ds.point(p), params.eps, nbhd);
    ++local_stats.queries;
    if (nbhd.size() < params.min_pts) continue;  // noise for now (or border)

    const std::int64_t cid = next_cluster++;
    res.is_core[p] = 1;
    res.label[p] = cid;

    // BFS over representative points only.
    std::deque<PointId> frontier;
    auto absorb = [&](const std::vector<PointId>& nb, PointId core_pt) {
      for (PointId q : nb) {
        if (res.label[q] == kNoise) res.label[q] = cid;
      }
      reps.clear();
      pick_representatives(ds, core_pt, nb, params.eps, reps);
      local_stats.expansion_skipped += nb.size() > reps.size()
                                           ? nb.size() - reps.size()
                                           : 0;
      for (PointId r : reps)
        if (!visited[r]) frontier.push_back(r);
    };
    absorb(nbhd, p);

    while (!frontier.empty()) {
      const PointId q = frontier.front();
      frontier.pop_front();
      if (visited[q]) continue;
      visited[q] = 1;
      nbhd.clear();
      tree.query_ball(ds.point(q), params.eps, nbhd);
      ++local_stats.queries;
      if (nbhd.size() < params.min_pts) continue;
      res.is_core[q] = 1;
      if (res.label[q] == kNoise) res.label[q] = cid;
      absorb(nbhd, q);
    }
  }

  if (stats) *stats = local_stats;
  return res;
}

}  // namespace udb
