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
//
// The AuxR-trees share one MC-major member store, built once after the
// sweep: a counting sort by MC gives each MC a contiguous run of slots, and
// each run is STR-tiled into leaves of at most kAuxLeafCap points. Flat
// arrays hold each MC's root MBR, each leaf's MBR, each leaf's dim-major SoA
// coordinate block and the slot -> point ids; MicroCluster::members views
// the MC's run of ids. A one-leaf AuxR-tree is its root MBR plus one block;
// a larger one is a root MBR over a row of leaf MBRs (STR packs the leaves,
// and a second level over at most a few dozen leaves would test as many
// MBRs as it saves). A query tests the root MBR, then each leaf MBR when
// there are several, and hands each surviving leaf to sq_dist_block_soa.

#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/box.hpp"
#include "common/dataset.hpp"
#include "common/parallel.hpp"
#include "common/runguard.hpp"
#include "common/simd.hpp"
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
    RTree::Config level1;
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

  // Points per AuxR-tree leaf (the R-tree default max_entries).
  static constexpr std::uint32_t kAuxLeafCap = 16;

  // `pool` (optional) parallelizes the embarrassingly parallel build stages:
  // per-MC AuxR-tree tiling, inner-circle counts, reachable-MC queries.
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
  // the `radius`-ball of p. Calls fn(point id, squared distance) for every
  // member strictly within `radius`, MC by MC in reach-list order. With
  // mbr_filter = false (the Section IV-B2 ablation) every reachable MC's
  // AuxR-tree is searched. Exact for radius <= eps (Lemma 3).
  template <class Fn>
    requires std::invocable<Fn&, PointId, double>
  void query_neighborhood(PointId p, double radius, Fn&& fn,
                          bool mbr_filter = true) const {
    QueryTally tally(*this);
    const double* q = ds_->ptr(p);
    for (McId r : mcs_[point_mc_[p]].reach)
      search_aux(r, q, radius * radius, mbr_filter, fn, tally);
  }

  // As above but appends (id, squared distance) pairs to `out`.
  void query_neighborhood(PointId p, double radius,
                          std::vector<std::pair<PointId, double>>& out,
                          bool mbr_filter = true) const;

  // Exact radius-neighborhood of an *arbitrary* query position (not
  // necessarily a dataset point) — the serving layer's entry point
  // (src/serve/). Every member within `radius` of q belongs to an MC whose
  // centre lies within radius + eps of q (member-to-centre distance is
  // strictly < eps), so searching the AuxR-trees of those centres — with the
  // same MBR filtration as the by-id query — is exact for any radius.
  // Thread-safe: reads immutable structure, touches only atomic counters.
  template <class Fn>
    requires std::invocable<Fn&, PointId, double>
  void query_neighborhood(std::span<const double> q, double radius,
                          Fn&& fn) const {
    if (q.size() != ds_->dim())
      throw std::invalid_argument(
          "MuRTree::query_neighborhood: wrong dimension");
    QueryTally tally(*this);
    const double r2 = radius * radius;
    const auto search = [&](PointId r) {
      search_aux(static_cast<McId>(r), q.data(), r2, true, fn, tally);
    };
    // Candidate MCs: centres within radius + eps (<=, so a member exactly at
    // `radius` whose centre sits at the bound is never missed). The level-1
    // visitor captures one reference, so its std::function never allocates.
    level1_.visit_ball(
        q, mc_candidate_radius(radius, eps_),
        [&search](PointId r, double) {
          search(r);
          return true;
        },
        /*strict=*/false);
  }
  void query_neighborhood(std::span<const double> q, double radius,
                          std::vector<std::pair<PointId, double>>& out) const;

  // Whether MC z's AuxR-tree root MBR meets the `radius`-ball around q: the
  // Section IV-B2 filter on its own, for callers that scan members directly.
  [[nodiscard]] bool mc_overlaps_ball(McId z, const double* q,
                                      double radius) const noexcept {
    const double* box = &mc_box_[std::size_t{z} * 2 * ds_->dim()];
    return box_min_sq_dist(box, box + ds_->dim(), q, ds_->dim()) <=
           radius * radius;
  }

  // Number of MCs whose AuxR-tree was actually searched (root MBR passed, or
  // no filter) across all query_neighborhood calls. Atomic so concurrent
  // queries from the parallel engine stay race-free.
  [[nodiscard]] std::uint64_t aux_trees_searched() const noexcept {
    return aux_searched_.load(std::memory_order_relaxed);
  }

  // Aggregated R-tree instrumentation over the level-1 tree and the
  // AuxR-trees across all queries since construction. An AuxR-tree query
  // visits the MC's root (one per reachable or candidate MC) and, when the
  // MC has several leaves, each leaf whose MBR it tests.
  struct IndexCounters {
    std::uint64_t node_visits = 0;
    std::uint64_t distance_evals = 0;
    std::uint64_t kernel_blocks = 0;       // leaf SoA blocks SIMD-scanned
    std::uint64_t kernel_tail_points = 0;  // points in blocks' scalar tails
  };
  [[nodiscard]] IndexCounters index_counters() const;

  // Test hook: structural invariants — every point in exactly one MC, member
  // distances < eps from the centre, slots <-> members <-> point_mc agree,
  // each MC's leaves hold its members in blocks of at most kAuxLeafCap with
  // the right SoA coordinates, leaf MBRs contain their points and the root
  // MBR is their union; level-1 R-tree invariants.
  void check_invariants() const;

 private:
  // One query's counts, published to the shared atomics once when the query
  // ends (every exit included), so the scan itself stays atomic-free.
  struct QueryTally {
    explicit QueryTally(const MuRTree& t) : tree(t) {}
    QueryTally(const QueryTally&) = delete;
    QueryTally& operator=(const QueryTally&) = delete;
    ~QueryTally();
    const MuRTree& tree;
    std::size_t lanes = active_simd_lanes();
    std::uint64_t searched = 0, nodes = 0, evals = 0, blocks = 0, tail = 0;
  };

  // Searches MC r's AuxR-tree for members strictly within sqrt(r2) of q.
  template <class Fn>
  void search_aux(McId r, const double* q, double r2, bool mbr_filter,
                  Fn& fn, QueryTally& t) const {
    const std::size_t dim = ds_->dim();
    ++t.nodes;
    if (mbr_filter) {
      const double* box = &mc_box_[std::size_t{r} * 2 * dim];
      if (box_min_sq_dist(box, box + dim, q, dim) > r2) return;
    }
    ++t.searched;
    const std::uint32_t first = mc_leaf_off_[r], last = mc_leaf_off_[r + 1];
    double d2[kAuxLeafCap];
    for (std::uint32_t l = first; l < last; ++l) {
      if (last - first > 1) {
        ++t.nodes;
        const double* box = &leaf_box_[std::size_t{l} * 2 * dim];
        if (box_min_sq_dist(box, box + dim, q, dim) > r2) continue;
      }
      const std::size_t begin = leaf_off_[l];
      const std::size_t cnt = leaf_off_[l + 1] - begin;
      sq_dist_block_soa(q, &coords_[begin * dim], cnt, cnt, dim, d2);
      t.evals += cnt;
      ++t.blocks;
      t.tail += cnt % t.lanes;
      for (std::size_t i = 0; i < cnt; ++i)
        if (d2[i] < r2) fn(slot_ids_[begin + i], d2[i]);
    }
  }

  // Fills the member store from point_mc_; `deferred` lists the pass-2
  // points in sweep order.
  void build_member_store(const std::vector<PointId>& deferred,
                          ThreadPool* pool);

  const Dataset* ds_;
  double eps_;
  Config cfg_;
  RTree level1_;
  std::vector<MicroCluster> mcs_;
  std::vector<McId> point_mc_;
  std::size_t deferred_ = 0;

  // The AuxR-tree member store. MC z owns slots [slot_off_[z], slot_off_[z+1])
  // and leaves [mc_leaf_off_[z], mc_leaf_off_[z+1]); leaf l owns slots
  // [leaf_off_[l], leaf_off_[l+1]), and its coordinates sit dim-major at
  // coords_[leaf_off_[l] * dim] with stride = its point count. MBRs are
  // stored lo then hi, 2 * dim doubles each.
  std::vector<PointId> slot_ids_;
  std::vector<std::uint32_t> slot_off_;
  std::vector<std::uint32_t> mc_leaf_off_;
  std::vector<std::uint32_t> leaf_off_;
  std::vector<double> coords_;
  std::vector<double> mc_box_;
  std::vector<double> leaf_box_;

  // Budget charge for the index structures (point_mc_, the member store, MC
  // records, level-1 tree, reach lists); released when the tree is destroyed.
  ScopedCharge mem_charge_;
  mutable std::atomic<std::uint64_t> aux_searched_{0};
  mutable std::atomic<std::uint64_t> aux_node_visits_{0};
  mutable std::atomic<std::uint64_t> aux_dist_evals_{0};
  mutable std::atomic<std::uint64_t> aux_kernel_blocks_{0};
  mutable std::atomic<std::uint64_t> aux_kernel_tail_{0};
};

}  // namespace udb
