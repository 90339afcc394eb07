#include "index/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/generators.hpp"

namespace udb {
namespace {

TEST(Grid, RejectsNonPositiveSide) {
  Dataset ds(2, {0.0, 0.0});
  EXPECT_THROW(Grid(ds, 0.0), std::invalid_argument);
  EXPECT_THROW(Grid(ds, -1.0), std::invalid_argument);
}

TEST(Grid, CellCoordHandlesNegatives) {
  Dataset ds(1, {-0.5, 0.5, -1.0});
  Grid grid(ds, 1.0);
  EXPECT_EQ(grid.cell_coord(ds.ptr(0))[0], -1);
  EXPECT_EQ(grid.cell_coord(ds.ptr(1))[0], 0);
  EXPECT_EQ(grid.cell_coord(ds.ptr(2))[0], -1);
}

TEST(Grid, ExtremeCoordinatesSaturateCellIndices) {
  // floor(x / side) beyond the int64 range saturates instead of overflowing,
  // and neighbour enumeration around a saturated cell stays in range.
  Dataset ds(2, {1e300, 0.0, -1e300, 1.0, 0.5, 0.5});
  Grid grid(ds, 1.0);
  EXPECT_EQ(grid.cell_coord(ds.ptr(0))[0], kGridCellLimit);
  EXPECT_EQ(grid.cell_coord(ds.ptr(1))[0], -kGridCellLimit);
  EXPECT_EQ(grid.cell_coord(ds.ptr(1))[1], 1);
  EXPECT_TRUE(grid.saturated(grid.cell_of_point(0)));
  EXPECT_TRUE(grid.saturated(grid.cell_of_point(1)));
  EXPECT_FALSE(grid.saturated(grid.cell_of_point(2)));
  for (Grid::CellId c = 0; c < grid.num_cells(); ++c) {
    std::vector<Grid::CellId> nbrs;
    grid.neighbors_within(c, 1, nbrs);
    EXPECT_EQ(nbrs, std::vector<Grid::CellId>{c});
  }
  EXPECT_EQ(grid_cell_index(std::numeric_limits<double>::infinity(), 1.0),
            kGridCellLimit);
  EXPECT_EQ(grid_cell_index(-std::numeric_limits<double>::infinity(), 1.0),
            -kGridCellLimit);
  EXPECT_EQ(grid_cell_index(std::numeric_limits<double>::quiet_NaN(), 1.0),
            -kGridCellLimit);
  EXPECT_EQ(grid_cell_index(0.5, 1e-300), kGridCellLimit);
  EXPECT_EQ(grid_cell_index(-2.5, 1.0), -3);
}

TEST(Grid, PointsBucketedByCell) {
  Dataset ds(2, {0.1, 0.1, 0.2, 0.2, 5.0, 5.0});
  Grid grid(ds, 1.0);
  EXPECT_EQ(grid.num_cells(), 2u);
  EXPECT_EQ(grid.cell_of_point(0), grid.cell_of_point(1));
  EXPECT_NE(grid.cell_of_point(0), grid.cell_of_point(2));
  EXPECT_EQ(grid.points_in(grid.cell_of_point(0)).size(), 2u);
}

TEST(Grid, EveryPointInExactlyOneCell) {
  Dataset ds = gen_uniform(500, 3, -20.0, 20.0, 9);
  Grid grid(ds, 2.5);
  std::size_t total = 0;
  for (Grid::CellId c = 0; c < grid.num_cells(); ++c)
    total += grid.points_in(c).size();
  EXPECT_EQ(total, ds.size());
  for (PointId p = 0; p < ds.size(); ++p) {
    const auto& pts = grid.points_in(grid.cell_of_point(p));
    EXPECT_NE(std::find(pts.begin(), pts.end(), p), pts.end());
  }
}

TEST(Grid, NeighborsIncludeSelf) {
  Dataset ds = gen_uniform(100, 2, 0.0, 10.0, 1);
  Grid grid(ds, 1.0);
  for (Grid::CellId c = 0; c < grid.num_cells(); ++c) {
    std::vector<Grid::CellId> nbrs;
    grid.neighbors_within(c, 1, nbrs);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), c), nbrs.end());
  }
}

std::vector<Grid::CellId> brute_neighbors(const Grid& grid, Grid::CellId c,
                                          std::int64_t k) {
  std::vector<Grid::CellId> out;
  const auto& base = grid.coord_of(c);
  for (Grid::CellId o = 0; o < grid.num_cells(); ++o) {
    const auto& oc = grid.coord_of(o);
    bool within = true;
    for (std::size_t i = 0; i < base.size(); ++i)
      if (std::llabs(oc[i] - base[i]) > k) within = false;
    if (within) out.push_back(o);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Grid, EnumerationMatchesBruteForce) {
  Dataset ds = gen_blobs(400, 3, 3, 30.0, 3.0, 0.2, 12);
  Grid grid(ds, 2.0);
  ASSERT_TRUE(grid.enumeration_feasible(2));
  for (Grid::CellId c = 0; c < grid.num_cells(); ++c) {
    std::vector<Grid::CellId> got;
    grid.neighbors_within(c, 2, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_neighbors(grid, c, 2));
  }
}

TEST(Grid, HighDimFallsBackToScanAndMatches) {
  Dataset ds = gen_uniform(100, 12, 0.0, 10.0, 13);
  Grid grid(ds, 1.0);
  EXPECT_FALSE(grid.enumeration_feasible(2));
  for (Grid::CellId c = 0; c < std::min<Grid::CellId>(grid.num_cells(), 10);
       ++c) {
    std::vector<Grid::CellId> got;
    grid.neighbors_within(c, 2, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_neighbors(grid, c, 2));
  }
}

TEST(Grid, FeasibilityThresholdBehaviour) {
  Dataset ds2(2, {0.0, 0.0});
  EXPECT_TRUE(Grid(ds2, 1.0).enumeration_feasible(1));
  Dataset ds20(20, std::vector<double>(20, 0.0));
  EXPECT_FALSE(Grid(ds20, 1.0).enumeration_feasible(1));
}

}  // namespace
}  // namespace udb
