// µR-tree (Section IV-B1, Fig. 1): a two-level R-tree. The first level
// indexes micro-cluster centres; each micro-cluster owns an auxiliary R-tree
// (AuxR-tree) over its member points. Breaking one big R-tree into a small
// tree-of-centres plus many tiny member trees stops MBR overlap from
// propagating to the leaves, which is where the paper's query-cost reduction
// comes from.
//
// Construction follows Algorithm 3: a point joins an existing MC whose centre
// is strictly within eps; otherwise, if some centre is within 2*eps, the
// point is deferred to an unassignedList (the "2-eps rule" that limits the
// number of MCs by discouraging overlapping centres); otherwise it founds a
// new MC. Deferred points are resolved in a second pass (join within eps or
// found an MC). Both passes probe a hash grid of the centres founded so far
// (cells of side 2*eps on at most three axes, candidates filtered by the
// true distance). Founding or deferring depends only on whether *some*
// centre is within eps or 2*eps, never on which MC a point joins, so the
// centre set and the deferred count are those of a linear scan over the
// centres. Level 1 is STR bulk-loaded once over the final centres and serves
// the reachable-MC and arbitrary-point queries (docs/ALGORITHM.md, Phase 1).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/dataset.hpp"
#include "common/parallel.hpp"
#include "common/runguard.hpp"
#include "core/microcluster.hpp"
#include "index/rtree.hpp"
#include "metrics/clustering.hpp"

namespace udb {

namespace obs {
class Tracer;
}

class MuRTree {
 public:
  struct Config {
    // Ablation switch: when false, skip the 2*eps deferral (every point
    // either joins an MC within eps or immediately founds one). Produces more
    // MCs; clustering stays exact either way.
    bool two_eps_rule = true;
    // AuxR-trees are built after all members are known, so STR bulk loading
    // applies (faster build, tighter MBRs). false = incremental Guttman
    // insertion, kept as an ablation.
    bool bulk_aux = true;
    RTree::Config level1;
    RTree::Config aux;
    // Optional run guard (not owned): the MC assignment sweep, AuxR-tree
    // builds, inner-circle and reachable phases run cooperative checkpoints
    // against it, and the built index structures are charged to its memory
    // budget (docs/ROBUSTNESS.md). A trip aborts construction via
    // StatusError; partial state is reclaimed on unwind.
    RunGuard* guard = nullptr;
    // Optional tracer (not owned): construction and the derived phases emit
    // build.assign / build.aux_trees / build.inner_circles / build.reachable
    // spans (docs/OBSERVABILITY.md).
    obs::Tracer* tracer = nullptr;
  };

  // `pool` (optional) parallelizes the embarrassingly parallel build stages:
  // per-MC AuxR-tree bulk loads, inner-circle counts, reachable-MC queries.
  // The MC assignment sweep itself stays sequential (points join MCs founded
  // by earlier points), so the tree is identical for every thread count.
  MuRTree(const Dataset& ds, double eps) : MuRTree(ds, eps, Config()) {}
  MuRTree(const Dataset& ds, double eps, Config cfg,
          ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t num_mcs() const noexcept { return mcs_.size(); }
  [[nodiscard]] const MicroCluster& mc(McId id) const noexcept {
    return mcs_[id];
  }
  [[nodiscard]] McId mc_of_point(PointId p) const noexcept {
    return point_mc_[p];
  }
  [[nodiscard]] const RTree& aux_tree(McId id) const noexcept {
    return aux_[id];
  }
  [[nodiscard]] const Dataset& dataset() const noexcept { return *ds_; }
  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] std::size_t deferred_points() const noexcept {
    return deferred_;
  }

  // Computes MC.ic_count for every MC (strict < eps/2 from centre).
  void compute_inner_circles(ThreadPool* pool = nullptr);

  // Populates MC.reach for every MC: all MCs whose centre is within 3*eps
  // (Lemma 3). Each MC's reach list includes itself.
  void compute_reachable(ThreadPool* pool = nullptr);

  // Exact eps-neighborhood of point p (Lemma 3 + MBR filtration): searches
  // only the AuxR-trees of reachable MCs of MC(p) whose root MBR intersects
  // the eps-ball of p. Visitor receives (point id, squared distance).
  void query_neighborhood(
      PointId p, double radius,
      const std::function<void(PointId, double)>& fn) const;

  // As above but into a vector of (id, squared distance) pairs.
  void query_neighborhood(PointId p, double radius,
                          std::vector<std::pair<PointId, double>>& out) const;

  // Exact radius-neighborhood of an *arbitrary* query position (not
  // necessarily a dataset point) — the serving layer's entry point
  // (src/serve/). Every member within `radius` of q belongs to an MC whose
  // centre lies within radius + eps of q (member-to-centre distance is
  // strictly < eps), so searching the AuxR-trees of those centres — with the
  // same MBR filtration as the by-id query — is exact for any radius.
  // Thread-safe: reads immutable structure, touches only atomic counters.
  void query_neighborhood(std::span<const double> q, double radius,
                          const std::function<void(PointId, double)>& fn) const;
  void query_neighborhood(std::span<const double> q, double radius,
                          std::vector<std::pair<PointId, double>>& out) const;

  // Number of MCs whose AuxR-tree was actually searched across all
  // query_neighborhood calls (for the filtration ablation). Atomic so
  // concurrent queries from the parallel engine stay race-free.
  [[nodiscard]] std::uint64_t aux_trees_searched() const noexcept {
    return aux_searched_.load(std::memory_order_relaxed);
  }

  // Aggregated R-tree instrumentation over the level-1 tree and every
  // AuxR-tree: nodes visited and point-distance evaluations across all
  // queries since construction. O(num_mcs) — call at phase boundaries, not
  // per query.
  struct IndexCounters {
    std::uint64_t node_visits = 0;
    std::uint64_t distance_evals = 0;
    std::uint64_t kernel_blocks = 0;       // leaf SoA blocks SIMD-scanned
    std::uint64_t kernel_tail_points = 0;  // points in blocks' scalar tails
  };
  [[nodiscard]] IndexCounters index_counters() const;

  // Test hook: structural invariants — every point in exactly one MC, member
  // distances < eps from the centre, level-1 / aux R-tree invariants.
  void check_invariants() const;

 private:
  const Dataset* ds_;
  double eps_;
  Config cfg_;
  RTree level1_;
  std::vector<MicroCluster> mcs_;
  std::vector<RTree> aux_;
  std::vector<McId> point_mc_;
  std::size_t deferred_ = 0;
  // Budget charge for the index structures (point_mc_, MC member lists,
  // level-1 tree, aux trees); released when the tree is destroyed.
  ScopedCharge mem_charge_;
  mutable std::atomic<std::uint64_t> aux_searched_{0};
};

}  // namespace udb
