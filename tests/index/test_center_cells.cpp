#include "index/center_cells.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/distance.hpp"
#include "common/rng.hpp"

namespace udb {
namespace {

// Lattice of step `step` on every axis in a seeded order, plus exact
// duplicates and, when `saturate`, points with +-1e300 on one axis.
Dataset lattice(std::size_t dim, std::size_t n, int side, double step,
                bool saturate, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> coords;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < dim; ++k)
      coords.push_back(step * static_cast<double>(rng.uniform_index(
                                  static_cast<std::uint64_t>(side))));
  for (std::size_t i = 0; i < n / 10; ++i) {
    const std::size_t src = rng.uniform_index(n);
    for (std::size_t k = 0; k < dim; ++k) {
      double v = coords[src * dim + k];
      if (saturate && k == i % dim) v = (i % 2 == 0 ? 1e300 : -1e300);
      coords.push_back(v);
    }
  }
  return Dataset(dim, std::move(coords));
}

// An index whose centres are the points with no earlier centre strictly
// within eps (Algorithm 3 without deferral), checking every probe against a
// linear scan of the centres added so far. Returns the centre point ids.
std::vector<PointId> sweep(const Dataset& ds, double eps, CenterCells& cells) {
  cells.grid_points(ds);
  std::vector<PointId> centers;
  for (PointId p = 0; p < ds.size(); ++p) {
    bool near = false, near2 = false;
    for (PointId c : centers) {
      const double d2 = sq_dist(ds.ptr(p), ds.ptr(c), ds.dim());
      near = near || d2 < eps * eps;
      near2 = near2 || d2 < 4.0 * eps * eps;
    }
    const CenterCells::Probe hit = cells.probe(p);
    EXPECT_EQ(hit.within_eps != CenterCells::kNone, near) << "point " << p;
    if (hit.within_eps != CenterCells::kNone) {
      EXPECT_LT(sq_dist(ds.ptr(p), ds.ptr(centers.at(hit.within_eps)),
                        ds.dim()),
                eps * eps);
    } else {
      EXPECT_EQ(hit.within_2eps, near2) << "point " << p;
    }
    if (!near) {
      cells.add(p, static_cast<std::uint32_t>(centers.size()));
      centers.push_back(p);
    }
  }
  cells.finish();
  return centers;
}

std::vector<std::int64_t> key_of(const double* x, std::size_t dim,
                                 double eps) {
  std::vector<std::int64_t> key;
  for (std::size_t a = 0; a < std::min<std::size_t>(dim, 3); ++a)
    key.push_back(grid_cell_index(x[a], 2.0 * eps));
  return key;
}

TEST(CenterCells, ProbesMatchLinearScanOfCenters) {
  for (std::size_t dim : {1u, 2u, 3u, 14u}) {
    for (double step : {0.5, 1.0}) {
      SCOPED_TRACE("d=" + std::to_string(dim) + " step=" +
                   std::to_string(step));
      const Dataset ds = lattice(dim, 300, dim > 3 ? 3 : 8, step, true, dim);
      CenterCells cells(dim, 1.0);
      const std::vector<PointId> centers = sweep(ds, 1.0, cells);
      EXPECT_EQ(cells.num_centers(), centers.size());
      EXPECT_NO_THROW(cells.check_invariants());
    }
  }
}

// Every window of a frozen index, for m = 1 and 2, walked whole and in
// chunks that start mid-row and mid-run (as the parallel reach build does),
// must list exactly the cells within m on every gridded axis, in key order.
void expect_windows_match_brute_force(const CenterCells& cells,
                                      std::size_t dim, double eps) {
  const std::size_t nc = cells.num_cells();
  std::vector<std::vector<std::int64_t>> keys;
  for (std::uint32_t c = 0; c < nc; ++c)
    keys.push_back(key_of(cells.coords(c), dim, eps));
  for (std::int64_t m : {1, 2}) {
    std::vector<std::vector<std::uint32_t>> want(nc);
    for (std::uint32_t c = 0; c < nc; ++c)
      for (std::uint32_t o = 0; o < nc; ++o) {
        bool in = true;
        for (std::size_t a = 0; a < keys[c].size(); ++a)
          in = in && keys[o][a] >= keys[c][a] - m &&
               keys[o][a] <= keys[c][a] + m;
        if (in) want[c].push_back(o);
      }
    for (std::size_t chunk : {nc, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{7}}) {
      SCOPED_TRACE("d=" + std::to_string(dim) + " m=" + std::to_string(m) +
                   " chunk=" + std::to_string(chunk));
      std::vector<std::vector<std::uint32_t>> got(nc);
      for (std::size_t b = 0; b < nc; b += std::max<std::size_t>(chunk, 1))
        cells.for_each_window(b, std::min(nc, b + chunk), m,
                              [&](std::uint32_t c, auto win) {
                                got[c].assign(win.begin(), win.end());
                              });
      for (std::uint32_t c = 0; c < nc; ++c)
        ASSERT_EQ(got[c], want[c]) << "cell " << c;
    }
  }
}

TEST(CenterCells, WindowsHoldEveryCellWithinM) {
  const double eps = 1.0;
  for (std::size_t dim : {1u, 2u, 3u, 5u}) {
    const Dataset ds = lattice(dim, 500, 12, 1.5, true, 20 + dim);
    CenterCells cells(dim, eps);
    sweep(ds, eps, cells);
    expect_windows_match_brute_force(cells, dim, eps);
  }
}

// One centre in the middle of each listed cell (side 2 * eps = 2) on the
// first three axes, zero on the others.
Dataset cell_centres(std::size_t dim,
                     const std::vector<std::array<std::int64_t, 3>>& keys) {
  std::vector<double> coords;
  for (const auto& key : keys)
    for (std::size_t k = 0; k < dim; ++k)
      coords.push_back(k < 3 ? 2.0 * static_cast<double>(key[k]) + 1.0 : 0.0);
  return Dataset(dim, std::move(coords));
}

// Sparse layouts, where most rows hold one cell and the rows near a row
// have gaps: a diagonal (one cell per row, every run of neighbour rows
// holds at most one), a staircase whose rows skip a value inside every
// +-m run, and a 3% random fill.
TEST(CenterCells, WindowsMatchBruteForceOnSparseRows) {
  const double eps = 1.0;
  std::vector<std::pair<std::string, std::vector<std::array<std::int64_t, 3>>>>
      layouts;
  std::vector<std::array<std::int64_t, 3>> diagonal, stairs, fill;
  for (std::int64_t i = -12; i < 12; ++i) diagonal.push_back({i, i, i});
  for (std::int64_t a = 0; a < 6; ++a)
    for (std::int64_t b : {-4, -3, -1, 0, 2, 5, 6, 9})
      stairs.push_back({a, b, (a * 3 + b) % 5});
  Rng rng(77);
  for (std::int64_t a = -6; a < 6; ++a)
    for (std::int64_t b = -6; b < 6; ++b)
      for (std::int64_t c = -6; c < 6; ++c)
        if (rng.uniform_index(100) < 3) fill.push_back({a, b, c});
  layouts.emplace_back("diagonal", diagonal);
  layouts.emplace_back("stairs", stairs);
  layouts.emplace_back("fill", fill);
  for (const auto& [name, keys] : layouts) {
    for (std::size_t dim : {1u, 2u, 3u, 14u}) {
      SCOPED_TRACE(name);
      const Dataset ds = cell_centres(dim, keys);
      CenterCells cells(dim, eps);
      sweep(ds, eps, cells);
      ASSERT_NO_THROW(cells.check_invariants());
      expect_windows_match_brute_force(cells, dim, eps);
    }
  }
}

TEST(CenterCells, VisitBallMatchesLinearScanPastTheAllRowsFallback) {
  const double eps = 1.0;
  for (std::size_t dim : {1u, 2u, 3u, 14u}) {
    const Dataset ds = lattice(dim, 400, dim > 3 ? 4 : 10, 0.75, true, dim);
    CenterCells cells(dim, eps);
    const std::vector<PointId> centers = sweep(ds, eps, cells);
    Rng rng(dim);
    for (int i = 0; i < 30; ++i) {
      std::vector<double> q(dim);
      for (std::size_t k = 0; k < dim; ++k)
        q[k] = i % 2 == 0 ? ds.ptr(static_cast<PointId>(i))[k]
                          : rng.uniform(-2.0, 9.0);
      // 1e6 * eps spans more rows than the index holds: the fallback.
      for (double r : {0.5, 1.0, 2.0, 3.0, 7.5, 40.0, 1e6, 1e300}) {
        SCOPED_TRACE("d=" + std::to_string(dim) + " r=" + std::to_string(r));
        std::vector<std::pair<std::uint32_t, double>> got, want;
        cells.visit_ball(q.data(), r * eps, [&](std::uint32_t id, double d2) {
          got.emplace_back(id, d2);
        });
        for (std::uint32_t z = 0; z < centers.size(); ++z) {
          const double d2 = sq_dist(q.data(), ds.ptr(centers[z]), dim);
          if (d2 <= r * eps * r * eps) want.emplace_back(z, d2);
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST(CenterCells, SaturatedCoordinatesAndOddRadiiStayExact) {
  Dataset ds(2, {1e300, 0.0, 1e300, 0.0, -1e300, 1.0, 0.5, 0.5, 0.5, 2.5});
  CenterCells cells(2, 1.0);
  const std::vector<PointId> centers = sweep(ds, 1.0, cells);
  ASSERT_EQ(centers.size(), 4u);  // the 1e300 twins share a centre
  EXPECT_NO_THROW(cells.check_invariants());
  const auto count = [&](const double* q, double r) {
    std::size_t k = 0;
    cells.visit_ball(q, r, [&](std::uint32_t, double) { ++k; });
    return k;
  };
  EXPECT_EQ(count(ds.ptr(0), 1.0), 1u);
  EXPECT_EQ(count(ds.ptr(3), 2.0), 2u);
  const double nan_q[2] = {std::nan(""), 0.0};
  EXPECT_EQ(count(nan_q, 1.0), 0u);
  // A radius whose square is subnormal takes the scan-everything path.
  EXPECT_EQ(count(ds.ptr(3), 1e-160), 1u);
  EXPECT_EQ(count(ds.ptr(3), std::numeric_limits<double>::infinity()), 4u);
  std::size_t windows = 0;
  cells.for_each_window(
      0, cells.num_cells(), 2,
      [&](std::uint32_t, auto win) { windows += win.size(); });
  EXPECT_GE(windows, cells.num_cells());
}

TEST(CenterCells, EmptyIndexAnswersNothing) {
  const Dataset ds = Dataset::empty(3);
  CenterCells cells(3, 1.0);
  cells.grid_points(ds);
  cells.finish();
  EXPECT_EQ(cells.num_cells(), 0u);
  EXPECT_NO_THROW(cells.check_invariants());
  const double q[3] = {0.0, 0.0, 0.0};
  std::size_t k = 0;
  cells.visit_ball(q, 5.0, [&](std::uint32_t, double) { ++k; });
  EXPECT_EQ(k, 0u);
}

// The online index (the incremental engine's centres) against a linear scan
// of the live centres, over a seeded history of inserts and erases. The
// points sit on a lattice of step eps / 2, so pairs exactly eps and exactly
// 2 * eps apart are common; the pool also holds exact duplicates, +-0.0
// twins and +-1e300 coordinates whose keys saturate. Erased ids are reused.
TEST(CenterCells, OnlineProbesMatchLinearScanOverInsertEraseHistories) {
  const double eps = 1.0;
  for (std::size_t dim : {1u, 2u, 3u, 14u}) {
    SCOPED_TRACE("d=" + std::to_string(dim));
    Dataset pool = lattice(dim, 240, dim > 3 ? 3 : 7, 0.5, true, 40 + dim);
    for (PointId p = 0; p < 12; ++p) {  // +-0.0 twins of the first points
      std::vector<double> twin(pool.ptr(p), pool.ptr(p) + dim);
      for (double& v : twin)
        if (v == 0.0) v = -v;
      pool.push_back(twin);
    }
    const auto key_of_pt = [&](const double* x) {
      return key_of(x, dim, eps);
    };
    CenterCells cells(dim, eps);
    std::vector<std::vector<double>> at;       // per id, while live
    std::vector<std::uint64_t> seq;            // per id, insertion number
    std::vector<std::uint32_t> live, free_ids;
    std::uint64_t inserted = 0;
    Rng rng(dim * 7 + 1);
    for (int op = 0; op < 1500; ++op) {
      if (live.empty() || rng.uniform_index(10) < 6) {
        std::uint32_t id;
        if (!free_ids.empty() && rng.uniform_index(2) == 0) {
          id = free_ids.back();
          free_ids.pop_back();
        } else {
          id = static_cast<std::uint32_t>(at.size());
          at.emplace_back();
          seq.push_back(0);
        }
        const PointId p = static_cast<PointId>(rng.uniform_index(pool.size()));
        at[id].assign(pool.ptr(p), pool.ptr(p) + dim);
        seq[id] = inserted++;
        cells.insert(at[id].data(), id);
        live.push_back(id);
      } else {
        const std::size_t j = rng.uniform_index(live.size());
        const std::uint32_t id = live[j];
        live[j] = live.back();
        live.pop_back();
        cells.erase(id);
        free_ids.push_back(id);
      }
      if (op % 25 != 0) continue;
      ASSERT_NO_THROW(cells.check_invariants());
      ASSERT_EQ(cells.num_centers(), live.size());
      for (std::uint32_t id : live)
        ASSERT_EQ(std::memcmp(cells.center(id), at[id].data(),
                              dim * sizeof(double)),
                  0);
      for (int k = 0; k < 12; ++k) {
        const double* q =
            pool.ptr(static_cast<PointId>(rng.uniform_index(pool.size())));
        // first_within_eps: the (key, insertion)-first centre within eps.
        std::uint32_t want = CenterCells::kNone;
        std::vector<std::pair<std::uint32_t, double>> want2;
        for (std::uint32_t id : live) {
          const double d2 = sq_dist(q, at[id].data(), dim);
          if (d2 <= 4.0 * eps * eps) want2.emplace_back(id, d2);
          if (!(d2 < eps * eps)) continue;
          if (want == CenterCells::kNone ||
              std::make_pair(key_of_pt(at[id].data()), seq[id]) <
                  std::make_pair(key_of_pt(at[want].data()), seq[want]))
            want = id;
        }
        ASSERT_EQ(cells.first_within_eps(q), want) << "op " << op;
        // visit_within_2eps: every centre within 2 * eps, in key order and
        // in insertion order within a cell.
        std::vector<std::pair<std::uint32_t, double>> got;
        cells.visit_within_2eps(
            q, [&](std::uint32_t id, double d2) { got.emplace_back(id, d2); });
        for (std::size_t i = 1; i < got.size(); ++i)
          ASSERT_LT(std::make_pair(key_of_pt(at[got[i - 1].first].data()),
                                   seq[got[i - 1].first]),
                    std::make_pair(key_of_pt(at[got[i].first].data()),
                                   seq[got[i].first]));
        std::sort(got.begin(), got.end());
        std::sort(want2.begin(), want2.end());
        ASSERT_EQ(got, want2) << "op " << op;
      }
    }
    // Emptied again: every cell leaves, and the probes find nothing.
    for (std::uint32_t id : live) cells.erase(id);
    ASSERT_NO_THROW(cells.check_invariants());
    EXPECT_EQ(cells.num_centers(), 0u);
    EXPECT_EQ(cells.first_within_eps(pool.ptr(0)), CenterCells::kNone);
  }
}

// Saturated keys: centres 1e300 apart share a cell, and the true distance
// keeps them apart; a centre exactly eps away is not within eps, one exactly
// 2 * eps away is within 2 * eps.
TEST(CenterCells, OnlineSaturatedKeysAndExactBoundaries) {
  CenterCells cells(2, 1.0);
  const double far_a[2] = {1e300, 1e300}, far_b[2] = {2e300, 1e300},
               o[2] = {0.0, 0.0}, e[2] = {1.0, 0.0}, e2[2] = {0.0, -2.0};
  cells.insert(far_a, 0);
  cells.insert(far_b, 1);
  cells.insert(e, 2);
  cells.insert(e2, 3);
  EXPECT_NO_THROW(cells.check_invariants());
  EXPECT_EQ(cells.first_within_eps(far_b), 1u);
  EXPECT_EQ(cells.first_within_eps(o), CenterCells::kNone);
  std::vector<std::uint32_t> got;
  cells.visit_within_2eps(o, [&](std::uint32_t id, double) {
    got.push_back(id);
  });
  EXPECT_EQ(got, (std::vector<std::uint32_t>{3, 2}));  // key order
  cells.erase(1);
  EXPECT_EQ(cells.first_within_eps(far_b), CenterCells::kNone);
  EXPECT_EQ(cells.first_within_eps(far_a), 0u);
  EXPECT_NO_THROW(cells.check_invariants());
}

}  // namespace
}  // namespace udb
