#include "index/center_cells.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(CenterCells, WindowsHoldEveryCellWithinM) {
  const double eps = 1.0;
  for (std::size_t dim : {1u, 2u, 3u, 5u}) {
    const Dataset ds = lattice(dim, 500, 12, 1.5, true, 20 + dim);
    CenterCells cells(dim, eps);
    sweep(ds, eps, cells);
    const std::size_t nc = cells.num_cells();
    std::vector<std::vector<std::int64_t>> keys;
    for (std::uint32_t c = 0; c < nc; ++c)
      keys.push_back(key_of(cells.coords(c), dim, eps));
    for (std::int64_t m : {1, 2}) {
      SCOPED_TRACE("d=" + std::to_string(dim) + " m=" + std::to_string(m));
      std::vector<std::vector<std::uint32_t>> whole(nc), chunked(nc);
      cells.for_each_window(0, nc, m, [&](std::uint32_t c, auto win) {
        whole[c].assign(win.begin(), win.end());
      });
      // Chunks of 7 cells start mid-row, as the parallel reach build does.
      for (std::size_t b = 0; b < nc; b += 7)
        cells.for_each_window(b, std::min(nc, b + 7), m,
                              [&](std::uint32_t c, auto win) {
                                chunked[c].assign(win.begin(), win.end());
                              });
      for (std::uint32_t c = 0; c < nc; ++c) {
        std::vector<std::uint32_t> want;
        for (std::uint32_t o = 0; o < nc; ++o) {
          bool in = true;
          for (std::size_t a = 0; a < keys[c].size(); ++a)
            in = in && keys[o][a] >= keys[c][a] - m &&
                 keys[o][a] <= keys[c][a] + m;
          if (in) want.push_back(o);
        }
        ASSERT_EQ(whole[c], want) << "cell " << c;
        ASSERT_EQ(chunked[c], want) << "cell " << c;
      }
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
