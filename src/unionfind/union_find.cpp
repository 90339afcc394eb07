#include "unionfind/union_find.hpp"

namespace udb {

std::size_t UnionFind::count_components() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < parent_.size(); ++i)
    if (parent_[i].load(std::memory_order_relaxed) == static_cast<PointId>(i))
      ++count;
  return count;
}

std::size_t UnionFind::component_ids(std::vector<std::uint32_t>& out) const {
  out.resize(parent_.size());
  std::uint32_t k = 0;
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    const PointId p = parent_[i].load(std::memory_order_relaxed);
    out[i] = p == static_cast<PointId>(i) ? k++ : out[p];
  }
  return k;
}

}  // namespace udb
