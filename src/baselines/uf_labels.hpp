// Shared helper: turn a union-find structure plus core/assigned flags into a
// ClusteringResult. Every algorithm in this library clusters by UNION
// operations (the PDSDBSCAN formulation); points that are neither core nor
// ever united with a core are noise.

#pragma once

#include "metrics/clustering.hpp"
#include "unionfind/union_find.hpp"

namespace udb {

// Labels are numbered in order of first appearance among the non-noise
// points. Reads the union-find without changing it (one forward pass,
// UnionFind::component_ids), so extraction runs from const contexts such as
// MuDbscanEngine::extract_result.
inline ClusteringResult extract_labels(const UnionFind& uf,
                                       std::vector<std::uint8_t> is_core,
                                       const std::vector<std::uint8_t>& assigned) {
  std::vector<std::uint32_t> comp;
  const std::size_t k = uf.component_ids(comp);
  std::vector<std::int64_t> label_of(k, kNoise);
  std::int64_t next = 0;
  ClusteringResult res;
  res.is_core = std::move(is_core);
  res.label.assign(uf.size(), kNoise);
  for (std::size_t i = 0; i < uf.size(); ++i) {
    if (!res.is_core[i] && !assigned[i]) continue;  // noise
    std::int64_t& l = label_of[comp[i]];
    if (l == kNoise) l = next++;
    res.label[i] = l;
  }
  return res;
}

}  // namespace udb
