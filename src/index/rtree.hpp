// A d-dimensional R-tree, built once by Sort-Tile-Recursive packing
// (Leutenegger et al.) over points known up front.
//
// This single index class serves these roles in the reproduction:
//   * the classical DBSCAN baselines (R-DBSCAN, QIDBSCAN, sampled DBSCAN and
//     PDSDBSCAN-D) index their points in one tree;
//   * k-dist and the distributed merge's halo index their points.
// The µR-tree's own levels are the centre cell index
// (index/center_cells.hpp), which also holds the incremental engine's
// centres, and a flat member store with the same SoA leaves
// (core/murtree.hpp).
//
// Leaves store their entries as structure-of-arrays coordinate blocks:
// a leaf-local packed `double` buffer laid out dim-major (coordinate k of
// entry i lives at block[k * count + i]) with a parallel PointId array.
// Queries hand a whole leaf to the runtime-dispatched SIMD distance kernel
// (common/simd.hpp, docs/KERNELS.md) — each vector lane is one point and
// every per-dimension load is unit-stride, so the hot eps-scan needs no
// gathers in any dimensionality. Coordinates are copied into the leaves, so
// the points handed to bulk_load_str() only need to outlive the call.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/box.hpp"
#include "common/dataset.hpp"

namespace udb {

class RTree {
 public:
  // Entries per node. STR packing fills every node to this many, leaving at
  // most one short tail node per level.
  static constexpr std::size_t kFanout = 16;

  ~RTree();
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // The one way to build a tree. STR packing: sorts the items into
  // fully-filled leaves tiled along successive axes (index/str.hpp), then
  // packs parent levels the same way, in O(n log n). Throws
  // std::invalid_argument when dim is 0 or there are 2^32 items or more.
  static RTree bulk_load_str(
      std::size_t dim, std::vector<std::pair<const double*, PointId>> items);
  // Every point of `ds`, under its index.
  static RTree bulk_load_str(const Dataset& ds);

  // k nearest neighbors of `center` by Euclidean distance (best-first branch
  // and bound). Returns up to k (id, squared distance) pairs ordered nearest
  // first. A point at the centre (distance 0) is included.
  void query_knn(std::span<const double> center, std::size_t k,
                 std::vector<std::pair<PointId, double>>& out) const;

  // Collects ids of all points within `radius` of `center`. strict=true uses
  // DIST < radius (the DBSCAN eps-neighborhood); strict=false uses <=
  // (the paper's 3*eps reachability test). Appends to `out`.
  void query_ball(std::span<const double> center, double radius,
                  std::vector<PointId>& out, bool strict = true) const;

  // Visits every point within radius; used where the caller wants to filter
  // by id or stop early with custom logic. Visitor returns false to stop.
  void visit_ball(std::span<const double> center, double radius,
                  const std::function<bool(PointId, double /*sq_dist*/)>& fn,
                  bool strict = true) const;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  // Instrumentation: number of point-point distance evaluations and tree
  // nodes visited (popped from the search stack/frontier) by queries since
  // construction (used by the ablation benches and the obs run report). The
  // counters are atomic so concurrent read-only queries (the thread-parallel
  // µDBSCAN phases) stay race-free; each query accumulates locally and
  // publishes one relaxed add on exit, keeping the scans themselves
  // atomic-free.
  [[nodiscard]] std::uint64_t distance_evals() const noexcept {
    return dist_evals_.load(std::memory_order_relaxed);
  }
  void reset_distance_evals() noexcept {
    dist_evals_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t node_visits() const noexcept {
    return node_visits_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::size_t height = 0;
    std::size_t internal_nodes = 0;
    std::size_t leaf_nodes = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  // Heap bytes held by the tree structure (nodes, MBRs, id arrays, and the
  // leaf SoA coordinate blocks). Used by the run-guard memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

  // Test hook: verifies the structural invariants (MBR containment, entry
  // count bounds, consistent leaf depth, tight leaf blocks). Throws
  // std::logic_error on violation.
  void check_invariants() const;

 private:
  struct Node;

  explicit RTree(std::size_t dim);

  std::size_t dim_;
  std::unique_ptr<Node> root_;
  std::size_t count_ = 0;
  mutable std::atomic<std::uint64_t> dist_evals_{0};
  mutable std::atomic<std::uint64_t> node_visits_{0};
};

}  // namespace udb
