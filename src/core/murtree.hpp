// µR-tree (Section IV-B1, Fig. 1): a two-level index. The first level
// indexes micro-cluster centres; each micro-cluster owns an auxiliary R-tree
// (AuxR-tree) over its member points. Breaking one big R-tree into a small
// index of centres plus many tiny member trees stops MBR overlap from
// propagating to the leaves, which is where the paper's query-cost reduction
// comes from.
//
// Construction follows Algorithm 3: a point joins an existing MC whose centre
// is strictly within eps; otherwise, if some centre is within 2*eps, the
// point is deferred to an unassignedList (the "2-eps rule" that limits the
// number of MCs by discouraging overlapping centres); otherwise it founds a
// new MC. Deferred points are resolved in a second pass (join within eps or
// found an MC). Both passes probe the centre cell index (index/
// center_cells.hpp: cells of side 2*eps on at most three axes, neighbour
// cells listed once per row of sorted keys, candidates filtered by the true
// distance). Founding or deferring depends only on whether *some* centre is
// within eps or 2*eps, never on which MC a point joins, so the centre set
// and the deferred count are those of a linear scan over the centres. A
// point joins the first centre within eps in its own cell, else in the
// neighbour cells in key order. The same index, frozen after the sweep, is
// the first level: it answers the Lemma-3 reach lists from the cells within
// two of each centre's cell and the arbitrary-position query from the cells
// the ball spans (docs/ALGORITHM.md, Phases 1-2).
//
// The AuxR-trees share one MC-major member store, built once after the
// sweep: a counting sort by MC gives each MC a contiguous run of slots in
// join order (pass-1 joiners by point id, then the deferred points). Flat
// arrays hold each MC's root MBR, each MC's dim-major SoA coordinate block
// and the slot -> point ids; MicroCluster::members views the MC's run of
// ids. Each AuxR-tree is thus its root MBR over one block: MCs average a
// handful of points, so leaf MBRs below the root would cost more to build
// than they save. A by-id or position query tests the root MBR, then hands
// the block to the range kernel (sq_dist_block_soa_hits) in chunks of
// kScanChunk points. Algorithm 6 instead gathers, once per MC, one candidate
// block from the blocks of the reach MCs near it and runs each of the MC's
// queries as one range-kernel pass over that block (gather_candidates).

#pragma once

#include <algorithm>
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
#include "index/center_cells.hpp"
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

  // Points per kernel call when a by-id or position query scans an MC's
  // block: the distances of one chunk sit in a stack buffer.
  static constexpr std::size_t kScanChunk = 32;

  // `pool` (optional) parallelizes the embarrassingly parallel build stages:
  // per-MC member blocks, inner-circle counts, reach lists.
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
  // (Lemma 3), in MC-id order. Each MC's reach list includes itself.
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
    // Candidate MCs: centres within radius + eps (<=, so a member exactly at
    // `radius` whose centre sits at the bound is never missed).
    centers_.visit_ball(q.data(), mc_candidate_radius(radius, eps_),
                        [&](McId z, double) {
                          search_aux(z, q.data(), r2, true, fn, tally);
                        });
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
  // no filter) across all query_neighborhood calls and candidate gathers.
  // Atomic so concurrent queries from the parallel engine stay race-free.
  [[nodiscard]] std::uint64_t aux_trees_searched() const noexcept {
    return aux_searched_.load(std::memory_order_relaxed);
  }

  // Query instrumentation not yet added to the tree's totals.
  struct QueryCounts {
    std::uint64_t searched = 0, nodes = 0, evals = 0, blocks = 0, tail = 0;
  };

  // Algorithm 6's MC-major query form. gather_candidates() copies, once per
  // MC z, the members of every reach MC whose root MBR comes within `radius`
  // of z's root MBR (every reach MC when mbr_filter is false) into one
  // dim-major SoA block; query_candidates() then answers a query from any
  // member of z with one sq_dist_block_soa_hits pass over it and returns the
  // number of hits: b.hits[0, n) are the block positions strictly within
  // `radius`, ascending, with ids b.ids[pos] and squared distances
  // b.d2[pos]. A neighbour of a member of z belongs to a reach MC (Lemma 3)
  // whose root MBR is no farther from z's than the two points are from each
  // other, so for radius <= eps the hits are query_neighborhood(p, radius)'s
  // members in the same order (reach-list order, then slot order), grouped
  // by reach MC: b.mcs[j]'s members sit at positions [b.mc_end[j-1],
  // b.mc_end[j]). The block's counts are those since the last
  // publish_counts().
  struct CandidateBlock : QueryCounts {
    std::vector<PointId> ids;
    std::vector<double> coords;       // dim-major, stride ids.size()
    std::vector<double> d2;           // one query's squared distances
    std::vector<std::uint32_t> hits;  // one query's hits, block positions
    std::vector<McId> mcs;            // the gathered reach MCs
    std::vector<std::uint32_t> mc_end;  // end position of each MC's run
    std::size_t lanes = active_simd_lanes();
  };
  void gather_candidates(McId z, double radius, bool mbr_filter,
                         CandidateBlock& b) const;
  [[nodiscard]] std::size_t query_candidates(CandidateBlock& b,
                                             const double* q,
                                             double radius) const noexcept {
    const std::size_t cnt = b.ids.size();
    b.evals += cnt;
    ++b.blocks;
    b.tail += cnt % b.lanes;
    return sq_dist_block_soa_hits(q, b.coords.data(), cnt, cnt, ds_->dim(),
                                  radius * radius, b.d2.data(),
                                  b.hits.data());
  }
  // Adds the block's counts to the tree's totals and zeroes them.
  void publish_counts(CandidateBlock& b) const;

  // Aggregated query instrumentation across all queries since construction.
  // A by-id or position query visits the root of each reachable or candidate
  // MC (one node, its MBR test); each kScanChunk-point chunk of a surviving
  // MC's block is one kernel block. A candidate gather visits one root per
  // reach MC; each candidate query is one block.
  struct IndexCounters {
    std::uint64_t node_visits = 0;
    std::uint64_t distance_evals = 0;
    std::uint64_t kernel_blocks = 0;       // SoA blocks SIMD-scanned
    std::uint64_t kernel_tail_points = 0;  // points in blocks' scalar tails
  };
  [[nodiscard]] IndexCounters index_counters() const;

  // Test hook: structural invariants — every point in exactly one MC, member
  // distances < eps from the centre, slots <-> members <-> point_mc agree,
  // each MC's block holds its members' SoA coordinates and its root MBR is
  // their exact bounding box; the centre index holds exactly the MC centres.
  void check_invariants() const;

 private:
  // One query's counts, published to the shared atomics once when the query
  // ends (every exit included), so the scan itself stays atomic-free.
  struct QueryTally : QueryCounts {
    explicit QueryTally(const MuRTree& t) : tree(t) {}
    QueryTally(const QueryTally&) = delete;
    QueryTally& operator=(const QueryTally&) = delete;
    ~QueryTally() { tree.add_counts(*this); }
    const MuRTree& tree;
    std::size_t lanes = active_simd_lanes();
  };
  void add_counts(const QueryCounts& c) const noexcept;

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
    const std::size_t s0 = slot_off_[r], size = slot_off_[r + 1] - s0;
    const double* block = &coords_[s0 * dim];
    double d2[kScanChunk];
    std::uint32_t hit[kScanChunk];
    for (std::size_t at = 0; at < size; at += kScanChunk) {
      const std::size_t cnt = std::min(kScanChunk, size - at);
      const std::size_t hits =
          sq_dist_block_soa_hits(q, block + at, cnt, size, dim, r2, d2, hit);
      t.evals += cnt;
      ++t.blocks;
      t.tail += cnt % t.lanes;
      for (std::size_t h = 0; h < hits; ++h)
        fn(slot_ids_[s0 + at + hit[h]], d2[hit[h]]);
    }
  }

  // Fills the member store from point_mc_; `deferred` lists the pass-2
  // points in sweep order.
  void build_member_store(const std::vector<PointId>& deferred,
                          ThreadPool* pool);

  const Dataset* ds_;
  double eps_;
  Config cfg_;
  CenterCells centers_;
  std::vector<MicroCluster> mcs_;
  std::vector<McId> point_mc_;
  std::size_t deferred_ = 0;

  // The AuxR-tree member store. MC z owns slots [slot_off_[z], slot_off_[z+1]),
  // and their coordinates sit dim-major at coords_[slot_off_[z] * dim] with
  // stride = the MC's size. Root MBRs are stored lo then hi, 2 * dim doubles
  // each.
  std::vector<PointId> slot_ids_;
  std::vector<std::uint32_t> slot_off_;
  std::vector<double> coords_;
  std::vector<double> mc_box_;

  // Budget charge for the index structures (point_mc_, the member store, MC
  // records, centre index, reach lists); released when the tree is destroyed.
  ScopedCharge mem_charge_;
  mutable std::atomic<std::uint64_t> aux_searched_{0};
  mutable std::atomic<std::uint64_t> aux_node_visits_{0};
  mutable std::atomic<std::uint64_t> aux_dist_evals_{0};
  mutable std::atomic<std::uint64_t> aux_kernel_blocks_{0};
  mutable std::atomic<std::uint64_t> aux_kernel_tail_{0};
};

}  // namespace udb
