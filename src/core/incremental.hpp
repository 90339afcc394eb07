// Incremental µDBSCAN (docs/INCREMENTAL.md): exact insert/delete maintenance
// of the micro-cluster summary and the cluster graph, so `result()` after any
// interleaved update sequence equals mu_dbscan() fit-from-scratch on the
// surviving points — without a global recompute per update.
//
// The locality argument is the paper's own (Section IV): a point's
// eps-neighborhood lives inside micro-clusters whose centres are within
// eps + eps of it (members are strictly within eps of their centre —
// mc_candidate_radius in core/microcluster.hpp), DMC/CMC status is a pure
// function of per-MC counts (Lemmas 1-2), and cluster-graph connectivity is
// confined to reachable MCs (Lemma 3). An update therefore perturbs a
// bounded region:
//
//   INSERT p: one neighborhood scan counts N(p) and bumps |N(q)| for each
//   neighbor q; points crossing the MinPts threshold are *promoted* —
//   insertion is monotone, core status is never revoked. Each promotion
//   links the new core into the cluster graph with a union-find merge over
//   its core neighbors (the only edges that can appear are incident to a
//   new core).
//
//   ERASE x: neighbors lose one count; cores falling below MinPts are
//   *demoted*. The only edges that can disappear are incident to the failed
//   set F = {x if core} ∪ demoted, so a cluster can only split along F. The
//   scoped re-check seeds a BFS from the surviving cores adjacent to F:
//   every surviving component of an affected cluster contains such a seed
//   (walk any old core-path toward the failure — the first failed node's
//   predecessor is still core, adjacent to F, and in the walker's
//   component). The BFS stops as soon as one traversal has covered every
//   seed (no split, the common case); only a real split pays for component
//   enumeration, and only over the affected cluster.
//
// Border points are maintained as a nearest-core cache ((d2, id)-minimal
// core strictly within eps), which makes result() canonical (see
// metrics/exactness.hpp: canonicalize_clustering) and O(survivors) with
// zero queries.
//
// Fallback policy: an optional cap on micro-clusters touched per update.
// When a pathological update (eps spanning the whole domain) exceeds it,
// the engine abandons the *local* graph repair and relabels globally from
// its own maintained counts — still exact, predictable cost, counted in
// inc_full_fallbacks. Counts and core flags are always maintained exactly
// and never fall back.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/dataset.hpp"
#include "core/microcluster.hpp"
#include "index/center_cells.hpp"
#include "metrics/clustering.hpp"
#include "obs/metrics.hpp"

namespace udb {

class IncrementalMuDbscan {
 public:
  struct Config {
    // Micro-clusters touched per update before the local graph repair is
    // abandoned for a global relabel (docs/INCREMENTAL.md §Fallback).
    // 0 = no cap: always repair locally.
    std::size_t max_touched_mcs_per_update = 0;
    // Optional parent metrics registry (not owned): inc_mcs_touched,
    // inc_graph_edges_repaired, inc_full_fallbacks and the inc_blast_radius
    // histogram are recorded per update when set.
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t mcs_touched = 0;         // candidate MCs scanned, cumulative
    std::uint64_t graph_edges_repaired = 0;  // unions + split relabel writes
    std::uint64_t full_fallbacks = 0;      // updates that hit the cap
  };

  // Two overloads instead of `Config cfg = {}`: a nested aggregate's default
  // member initializers are not usable as a default argument while the
  // enclosing class is still incomplete (GCC rejects it).
  IncrementalMuDbscan(std::size_t dim, const DbscanParams& params);
  IncrementalMuDbscan(std::size_t dim, const DbscanParams& params, Config cfg);

  // Ingest one point. Returned ids are dense, stable, and never reused;
  // after erasures they are *not* positions in result()/survivors() order.
  // Throws std::invalid_argument on a wrong dimension or a non-finite
  // coordinate (either would corrupt the maintained counts).
  PointId insert(std::span<const double> pt);

  // Remove a point by id. Returns false if the id was never allocated or is
  // already erased. Exact: core flags, counts, labels and border attachments
  // of every surviving point are repaired before returning.
  bool erase(PointId id);

  // Remove the first (lowest-id) alive point whose coordinates are bitwise
  // equal to `pt` (memcmp semantics: -0.0 != +0.0; a non-finite `pt`
  // matches nothing, since insert refuses it). Returns the erased id, or
  // kInvalidPoint if no alive point matches. Only the members of MCs whose
  // centre is strictly within eps of `pt` are compared. This is the
  // WAL-tombstone replay primitive (docs/ROBUSTNESS.md).
  PointId erase_equal(std::span<const double> pt);

  [[nodiscard]] std::size_t size() const noexcept { return alive_count_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const DbscanParams& params() const noexcept { return params_; }
  [[nodiscard]] bool alive(PointId id) const noexcept {
    return id < total_ && alive_[id] != 0;
  }
  [[nodiscard]] std::span<const double> point(PointId id) const noexcept {
    return {ptr(id), dim_};
  }
  [[nodiscard]] std::size_t num_mcs() const noexcept { return live_mcs_; }
  // Exact maintained core count (|{alive p : |N_eps(p)| >= MinPts}|).
  [[nodiscard]] std::size_t num_core() const noexcept { return core_count_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Canonical exact clustering of the alive points in insertion order:
  // identical (plain vector equality) to
  //   canonicalize_clustering(survivors(), params, mu_dbscan(survivors()))
  // after any interleaved insert/erase sequence. O(survivors), no queries.
  [[nodiscard]] ClusteringResult result() const;

  // The alive points as one contiguous Dataset in insertion order — the
  // point set result() is aligned with.
  [[nodiscard]] Dataset survivors() const;

  // Test hook: recomputes counts/flags/borders brute-force and throws
  // std::logic_error on any divergence from the maintained state. O(n^2).
  void check_invariants() const;

 private:
  // A live MC is in centers_ under its id, which holds its centre's
  // coordinates (they outlive the centre point's erasure). An MC whose last
  // member is erased leaves centers_ at once, and its id is reused.
  struct Mc {
    std::vector<PointId> members;  // may contain erased ids until compacted
    std::uint32_t alive_members = 0;
  };

  [[nodiscard]] const double* ptr(PointId id) const noexcept {
    return chunks_[id / kChunkPoints].get() +
           static_cast<std::size_t>(id % kChunkPoints) * dim_;
  }

  // Appends every alive point strictly within eps of q (excluding
  // `exclude`) to `out`, as (id, squared distance) pairs. Bumps *touched by
  // the candidate MCs scanned: the MCs whose centres are within 2*eps of q.
  void collect_neighbors(const double* q, PointId exclude,
                         std::vector<std::pair<PointId, double>>& out,
                         std::size_t* touched) const;

  void assign_to_mc(PointId id, const double* pt);
  void compact_members(Mc& mc);

  // Label union-find (labels are slots in label_parent_, grown on demand).
  [[nodiscard]] std::int64_t find_label(std::int64_t l) const;
  std::int64_t fresh_label();
  std::int64_t union_labels(std::int64_t a, std::int64_t b);

  void promote_core(PointId x,
                    const std::vector<std::pair<PointId, double>>* known_nbrs,
                    std::size_t* touched);
  void maybe_improve_border(PointId q, PointId core, double d2);
  void recompute_border(PointId q, std::size_t* touched);

  // Scoped split re-check after an erasure (docs/INCREMENTAL.md §Delete).
  void repair_after_failures(const std::vector<PointId>& failed,
                             const std::vector<std::pair<PointId, double>>&
                                 failed_nbrs_flat,
                             const std::vector<std::size_t>& failed_nbrs_off,
                             std::size_t* touched);

  // Fallback: global relabel + border rebuild from maintained counts.
  void rebuild_labels_global();

  void finish_update(std::size_t touched, std::uint64_t edges_delta,
                     bool fell_back);

  std::size_t dim_;
  DbscanParams params_;
  Config cfg_;
  double eps2_;

  // Chunked coordinate storage: pointer-stable across growth.
  static constexpr std::size_t kChunkPoints = 4096;
  std::vector<std::unique_ptr<double[]>> chunks_;
  std::size_t total_ = 0;
  std::size_t alive_count_ = 0;
  std::size_t core_count_ = 0;

  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> nbr_count_;  // |N_eps strict|, self included
  std::vector<std::uint8_t> is_core_;
  std::vector<McId> mc_of_;

  std::vector<Mc> mcs_;
  std::vector<McId> free_mcs_;  // ids of emptied MCs, reused last-in first
  std::size_t live_mcs_ = 0;
  CenterCells centers_;
  // collect_neighbors' candidate MCs as (centre squared distance, id).
  mutable std::vector<std::pair<double, McId>> candidates_;

  mutable std::vector<std::int64_t> label_parent_;  // mutable: path halving
  std::vector<std::int64_t> label_size_;            // union-by-size heuristic
  std::vector<std::int64_t> core_label_;  // per point; valid iff is_core_

  // Nearest-core border cache: for alive non-core q, border_core_[q] is the
  // (d2, id)-minimal alive core strictly within eps, or kInvalidPoint
  // (noise). Labels of borders are read through it at result() time, so
  // split relabels never touch borders.
  std::vector<PointId> border_core_;
  std::vector<double> border_d2_;

  // Per-update visit stamps (BFS visited set without clearing).
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t stamp_gen_ = 0;

  Stats stats_;
};

}  // namespace udb
