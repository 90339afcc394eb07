#include "index/center_cells.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
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

}  // namespace
}  // namespace udb
