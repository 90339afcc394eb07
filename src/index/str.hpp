// Sort-Tile-Recursive tiling (STR, Leutenegger et al.), shared by the R-tree
// bulk load and the µR-tree's per-MC member store.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>

namespace udb {

// Recursively sorts [begin, end) by successive axes and cuts it into slabs,
// so that consecutive runs of `leaf_cap` items are spatially clustered: a
// caller packs leaves from the tiled order. `coord(item, axis)` reads one
// coordinate. Ties keep whatever order std::sort leaves them in, which
// depends only on the coordinates and the input order, never on the item
// type.
template <class It, class Coord>
void str_tile(It begin, It end, std::size_t axis, std::size_t dim,
              std::size_t leaf_cap, const Coord& coord) {
  const auto count = static_cast<std::size_t>(std::distance(begin, end));
  if (count <= leaf_cap || axis >= dim) return;
  std::sort(begin, end, [&](const auto& a, const auto& b) {
    return coord(a, axis) < coord(b, axis);
  });
  // Number of slabs along this axis: the remaining dims share the split
  // factor evenly (classic STR: S = ceil((n/cap)^(1/remaining_dims))).
  const double leaves =
      std::ceil(static_cast<double>(count) / static_cast<double>(leaf_cap));
  const double remaining = static_cast<double>(dim - axis);
  const auto slabs = static_cast<std::size_t>(
      std::max(1.0, std::ceil(std::pow(leaves, 1.0 / remaining))));
  const std::size_t slab_size = (count + slabs - 1) / slabs;
  for (std::size_t s = 0; s < count; s += slab_size)
    str_tile(begin + static_cast<std::ptrdiff_t>(s),
             begin + static_cast<std::ptrdiff_t>(std::min(count, s + slab_size)),
             axis + 1, dim, leaf_cap, coord);
}

}  // namespace udb
