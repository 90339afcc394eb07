// Hash-grid spatial index: the substrate for the GridDBSCAN baseline and the
// HPDBSCAN-like distributed baseline. Space is cut into axis-aligned cells of
// a fixed side length; points are bucketed by cell; neighborhood queries scan
// the cells within a Chebyshev radius.
//
// Neighbor-cell enumeration has two strategies, mirroring why grid methods
// degrade in high dimensions (the µDBSCAN paper's critique):
//   * offset enumeration when (2k+1)^d is small — O(1) per neighbor;
//   * a scan over all non-empty cells otherwise — the combinatorial explosion
//     of candidate offsets makes enumeration infeasible for d ≳ 8.

#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/dataset.hpp"

namespace udb {

// Cell indices are floor(x / side) saturated to [-kGridCellLimit,
// kGridCellLimit]. The limit leaves headroom for neighbour offsets and for
// the difference of two indices, so no index arithmetic can overflow even
// when |x / side| >= 2^63 (huge coordinates or a tiny side). Clamping is
// monotone and never widens a gap, so two coordinates within m cells of each
// other stay within m cells; it only merges far cells, and callers that
// filter candidates by true distance stay exact. NaN saturates low.
inline constexpr std::int64_t kGridCellLimit = std::int64_t{1} << 60;

[[nodiscard]] inline std::int64_t grid_cell_index(double x,
                                                  double side) noexcept {
  constexpr double kLimit = static_cast<double>(kGridCellLimit);
  const double v = std::floor(x / side);
  if (!(v > -kLimit)) return -kGridCellLimit;
  if (v >= kLimit) return kGridCellLimit;
  return static_cast<std::int64_t>(v);
}

class Grid {
 public:
  using CellId = std::uint32_t;
  using CellCoord = std::vector<std::int64_t>;

  Grid(const Dataset& ds, double cell_side);

  [[nodiscard]] std::size_t num_cells() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] double cell_side() const noexcept { return side_; }
  [[nodiscard]] const Dataset& dataset() const noexcept { return *ds_; }

  [[nodiscard]] CellId cell_of_point(PointId p) const noexcept {
    return point_cell_[p];
  }
  [[nodiscard]] const std::vector<PointId>& points_in(CellId c) const noexcept {
    return cells_[c].pts;
  }
  [[nodiscard]] const CellCoord& coord_of(CellId c) const noexcept {
    return cells_[c].coord;
  }

  // Non-empty cells whose coordinates differ from `c` by at most `k` on every
  // axis (Chebyshev ball), including `c` itself. Appends to `out`.
  void neighbors_within(CellId c, std::int64_t k,
                        std::vector<CellId>& out) const;

  // Whether neighbor queries for radius k will use offset enumeration (cheap
  // per cell) or a full scan over cells (the high-dimensional fallback).
  [[nodiscard]] bool enumeration_feasible(std::int64_t k) const noexcept;

  [[nodiscard]] CellCoord cell_coord(const double* pt) const;

  // True when some coordinate of cell `c` hit the saturation limit: such a
  // cell may hold points arbitrarily far apart, so "same cell" says nothing
  // about distance there.
  [[nodiscard]] bool saturated(CellId c) const noexcept;

 private:
  struct Cell {
    CellCoord coord;
    std::vector<PointId> pts;
  };

  struct CoordHash {
    std::size_t operator()(const CellCoord& c) const noexcept {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::int64_t v : c) {
        h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };

  const Dataset* ds_;
  double side_;
  std::vector<Cell> cells_;
  std::vector<CellId> point_cell_;
  std::unordered_map<CellCoord, CellId, CoordHash> lookup_;
};

}  // namespace udb
