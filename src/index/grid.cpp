#include "index/grid.hpp"

#include <stdexcept>

namespace udb {

Grid::Grid(const Dataset& ds, double cell_side) : ds_(&ds), side_(cell_side) {
  if (!(cell_side > 0.0))
    throw std::invalid_argument("Grid: cell_side must be positive");
  point_cell_.resize(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const PointId pid = static_cast<PointId>(i);
    CellCoord coord = cell_coord(ds.ptr(pid));
    auto [it, inserted] =
        lookup_.try_emplace(std::move(coord), static_cast<CellId>(cells_.size()));
    if (inserted) {
      cells_.push_back(Cell{it->first, {}});
    }
    cells_[it->second].pts.push_back(pid);
    point_cell_[pid] = it->second;
  }
}

Grid::CellCoord Grid::cell_coord(const double* pt) const {
  CellCoord coord(ds_->dim());
  for (std::size_t k = 0; k < ds_->dim(); ++k)
    coord[k] = grid_cell_index(pt[k], side_);
  return coord;
}

bool Grid::saturated(CellId c) const noexcept {
  for (std::int64_t v : cells_[c].coord)
    if (v == kGridCellLimit || v == -kGridCellLimit) return true;
  return false;
}

bool Grid::enumeration_feasible(std::int64_t k) const noexcept {
  // (2k+1)^d candidate offsets; cap at 64k so low-d stays fast and high-d
  // falls back to scanning actual cells.
  double candidates = 1.0;
  for (std::size_t i = 0; i < ds_->dim(); ++i) {
    candidates *= static_cast<double>(2 * k + 1);
    if (candidates > 65536.0) return false;
  }
  return true;
}

void Grid::neighbors_within(CellId c, std::int64_t k,
                            std::vector<CellId>& out) const {
  const CellCoord& base = cells_[c].coord;
  if (enumeration_feasible(k)) {
    // Odometer over offsets in [-k, k]^d.
    const std::size_t d = base.size();
    std::vector<std::int64_t> off(d, -k);
    CellCoord probe(d);
    while (true) {
      for (std::size_t i = 0; i < d; ++i) probe[i] = base[i] + off[i];
      if (auto it = lookup_.find(probe); it != lookup_.end())
        out.push_back(it->second);
      std::size_t axis = 0;
      while (axis < d && off[axis] == k) {
        off[axis] = -k;
        ++axis;
      }
      if (axis == d) break;
      ++off[axis];
    }
  } else {
    // High-dimensional fallback: test every non-empty cell. This is the
    // quadratic-in-cells behaviour that sinks grid methods at high d.
    for (CellId other = 0; other < cells_.size(); ++other) {
      const CellCoord& oc = cells_[other].coord;
      bool within = true;
      for (std::size_t i = 0; i < base.size(); ++i) {
        const std::int64_t diff =
            oc[i] > base[i] ? oc[i] - base[i] : base[i] - oc[i];
        if (diff > k) {
          within = false;
          break;
        }
      }
      if (within) out.push_back(other);
    }
  }
}

}  // namespace udb
