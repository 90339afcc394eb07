// A d-dimensional R-tree (Guttman 1984) with quadratic split.
//
// This single index class serves these roles in the reproduction:
//   * the classical DBSCAN baseline (R-DBSCAN) indexes all n points in one
//     tree;
//   * the incremental engine indexes its MC centres, and k-dist and the
//     distributed merge index their points (the µR-tree's own levels are
//     the centre cell index, index/center_cells.hpp, and a flat member
//     store with the same SoA leaves, core/murtree.hpp).
//
// Leaves store their entries as structure-of-arrays coordinate blocks:
// a leaf-local packed `double` buffer laid out dim-major (coordinate k of
// entry i lives at block[k * stride + i]) with a parallel PointId array.
// Queries hand a whole leaf to the runtime-dispatched SIMD distance kernel
// (common/simd.hpp, docs/KERNELS.md) — each vector lane is one point and
// every per-dimension load is unit-stride, so the hot eps-scan needs no
// gathers in any dimensionality. Coordinates are copied into the leaf at
// insert/bulk-load time; the `pt` pointers handed to insert() only need to
// stay valid for the duration of the call.
//
// Enlargement heuristics use margin (perimeter) rather than volume: with
// d up to 74, products of side lengths over/underflow doubles, while sums
// stay well behaved and preserve the heuristic's intent.

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
  struct Config {
    std::uint32_t max_entries = 16;  // Guttman's M
    std::uint32_t min_entries = 6;   // Guttman's m (~40% of M)
  };

  explicit RTree(std::size_t dim) : RTree(dim, Config()) {}
  RTree(std::size_t dim, Config cfg);
  ~RTree();
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Inserts a point with the given id. The coordinates are copied into the
  // target leaf's SoA block, so `pt` only needs to stay valid for this call.
  void insert(const double* pt, PointId id);

  // Sort-Tile-Recursive (STR, Leutenegger et al.) bulk load: packs the items
  // into fully-filled leaves tiled along successive axes (index/str.hpp),
  // then packs parent levels the same way. Produces better-clustered MBRs
  // than incremental insertion and builds in O(n log n); for callers that
  // have all points up front.
  static RTree bulk_load_str(
      std::size_t dim, std::vector<std::pair<const double*, PointId>> items) {
    return bulk_load_str(dim, std::move(items), Config());
  }
  static RTree bulk_load_str(std::size_t dim,
                             std::vector<std::pair<const double*, PointId>> items,
                             Config cfg);

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

  // Returns the id of some point within `radius` of `center`, or
  // kInvalidPoint if none exists. Early-exits on first hit.
  [[nodiscard]] PointId first_within(std::span<const double> center,
                                     double radius, bool strict = true) const;

  // Visits every point within radius; used where the caller wants to filter
  // by id or stop early with custom logic. Visitor returns false to stop.
  void visit_ball(std::span<const double> center, double radius,
                  const std::function<bool(PointId, double /*sq_dist*/)>& fn,
                  bool strict = true) const;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const Box& root_mbr() const;

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
  // count bounds, consistent leaf depth). Throws std::logic_error on
  // violation.
  void check_invariants() const;

 private:
  struct Node;

  // Allocates a leaf with a fixed-capacity SoA block of max_entries+1 points
  // (one slot of overflow headroom before the split triggers), so the block's
  // stride stays constant while entries accumulate.
  [[nodiscard]] std::unique_ptr<Node> make_leaf() const;

  void insert_recursive(Node& node, const double* pt, PointId id,
                        std::unique_ptr<Node>& split_out);
  void split_leaf(Node& node, std::unique_ptr<Node>& out);
  void split_internal(Node& node, std::unique_ptr<Node>& out);

  std::size_t dim_;
  Config cfg_;
  std::unique_ptr<Node> root_;
  std::size_t count_ = 0;
  bool enforce_min_fill_ = true;  // false for STR bulk-loaded trees
  mutable std::atomic<std::uint64_t> dist_evals_{0};
  mutable std::atomic<std::uint64_t> node_visits_{0};
};

}  // namespace udb
