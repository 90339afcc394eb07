#include "baselines/grid_dbscan.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/uf_labels.hpp"
#include "common/distance.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "index/grid.hpp"

namespace udb {

ClusteringResult grid_dbscan(const Dataset& ds, const DbscanParams& params,
                             GridDbscanStats* stats,
                             obs::MetricsRegistry* metrics) {
  const std::size_t n = ds.size();
  const std::size_t dim = ds.dim();
  const double eps = params.eps;
  const double eps2 = eps * eps;
  WallTimer timer;

  // Cell side just under eps/sqrt(d): the cell diagonal is then strictly
  // below eps, so same-cell points are pairwise strictly within eps (the
  // dense-cell core shortcut is airtight even for adversarial coordinates).
  const double side = eps / std::sqrt(static_cast<double>(dim)) *
                      (1.0 - 1e-12);
  Grid grid(ds, side);
  const auto k = static_cast<std::int64_t>(eps / side) + 1;

  // Precomputed neighbor-cell lists (GridDBSCAN's memory hog).
  const std::size_t ncells = grid.num_cells();
  std::vector<std::vector<Grid::CellId>> nbr_cells(ncells);
  std::uint64_t nbr_entries = 0;
  for (Grid::CellId c = 0; c < ncells; ++c) {
    grid.neighbors_within(c, k, nbr_cells[c]);
    nbr_entries += nbr_cells[c].size();
  }

  // Per-cell SoA coordinate blocks (dim-major, stride = cell population) so
  // the per-point candidate scans below go through the dispatched SIMD
  // kernel instead of one sq_dist call per candidate.
  std::vector<std::size_t> cell_off(ncells + 1, 0);
  for (Grid::CellId c = 0; c < ncells; ++c)
    cell_off[c + 1] = cell_off[c] + grid.points_in(c).size();
  std::vector<double> cell_blocks(n * dim);
  std::size_t max_cell = 0;
  for (Grid::CellId c = 0; c < ncells; ++c) {
    const auto& pts = grid.points_in(c);
    const std::size_t cnt = pts.size();
    max_cell = std::max(max_cell, cnt);
    double* seg = cell_blocks.data() + cell_off[c] * dim;
    for (std::size_t i = 0; i < cnt; ++i) {
      const double* pt = ds.ptr(pts[i]);
      for (std::size_t d = 0; d < dim; ++d) seg[d * cnt + i] = pt[d];
    }
  }
  const double build_s = timer.seconds();

  timer.reset();
  UnionFind uf(n);
  std::vector<std::uint8_t> is_core(n, 0);
  std::vector<std::uint8_t> assigned(n, 0);
  std::vector<std::uint8_t> cell_dense(ncells, 0);

  // Dense cells: all points core, no query; union within the cell. A
  // saturated cell can hold far-apart points, so it is never dense.
  std::uint64_t dense_cnt = 0, saved = 0;
  for (Grid::CellId c = 0; c < ncells; ++c) {
    const auto& pts = grid.points_in(c);
    if (pts.size() < params.min_pts || grid.saturated(c)) continue;
    cell_dense[c] = 1;
    ++dense_cnt;
    saved += pts.size();
    for (PointId q : pts) {
      is_core[q] = 1;
      assigned[q] = 1;
      uf.union_sets(pts.front(), q);
    }
  }

  // Per-point pass over non-dense-cell points: neighborhood via the
  // precomputed cell lists, union-find clustering.
  std::uint64_t queries = 0;
  std::vector<PointId> nbhd;
  std::vector<double> d2buf(max_cell);
  for (std::size_t i = 0; i < n; ++i) {
    const PointId p = static_cast<PointId>(i);
    const Grid::CellId c = grid.cell_of_point(p);
    if (cell_dense[c]) continue;  // query saved
    ++queries;
    const double* pp = ds.ptr(p);
    nbhd.clear();
    for (Grid::CellId nc : nbr_cells[c]) {
      const auto& cpts = grid.points_in(nc);
      const std::size_t cnt = cpts.size();
      if (cnt == 0) continue;
      sq_dist_block_soa(pp, cell_blocks.data() + cell_off[nc] * dim, cnt, cnt,
                        dim, d2buf.data());
      for (std::size_t j = 0; j < cnt; ++j)
        if (d2buf[j] < eps2) nbhd.push_back(cpts[j]);
    }
    if (metrics) metrics->observe(obs::Hist::kNeighborCount, nbhd.size());
    if (nbhd.size() < params.min_pts) {
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

  // Merge adjacent dense cells: their points never queried, so cross-cell
  // core-core links within eps must be established explicitly.
  for (Grid::CellId c = 0; c < ncells; ++c) {
    if (!cell_dense[c]) continue;
    for (Grid::CellId nc : nbr_cells[c]) {
      if (nc <= c || !cell_dense[nc]) continue;
      const auto& a = grid.points_in(c);
      const auto& b = grid.points_in(nc);
      if (uf.same(a.front(), b.front())) continue;
      bool linked = false;
      for (PointId pa : a) {
        for (PointId pb : b) {
          if (sq_dist(ds.ptr(pa), ds.ptr(pb), dim) < eps2) {
            uf.union_sets(pa, pb);
            linked = true;
            break;
          }
        }
        if (linked) break;
      }
    }
  }

  if (metrics) {
    metrics->add(obs::Counter::kQueriesPerformed, queries);
    metrics->add(obs::Counter::kQueriesAvoidedDenseCell, saved);
  }
  if (stats) {
    stats->cells = ncells;
    stats->dense_cells = dense_cnt;
    stats->queries = queries;
    stats->queries_saved = saved;
    stats->neighbor_list_entries = nbr_entries;
    stats->build_seconds = build_s;
    stats->cluster_seconds = timer.seconds();
  }
  return extract_labels(uf, std::move(is_core), assigned);
}

}  // namespace udb
