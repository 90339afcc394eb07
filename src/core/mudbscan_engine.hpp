// The µDBSCAN engine: the four algorithm phases as separately invokable
// steps, with the union-find structure, flags, and µR-tree exposed. The
// single-process entry point (mu_dbscan in mudbscan.hpp) is a thin wrapper; the
// distributed implementation (dist/mudbscan_d) drives the engine on each
// rank's halo-augmented local dataset and then reads the internals to build
// its cross-rank merge edges.

#pragma once

#include <memory>
#include <vector>

#include "common/dataset.hpp"
#include "common/parallel.hpp"
#include "common/runguard.hpp"
#include "core/mudbscan.hpp"
#include "core/murtree.hpp"
#include "obs/metrics.hpp"
#include "unionfind/union_find.hpp"

namespace udb {

class MuDbscanEngine {
 public:
  MuDbscanEngine(const Dataset& ds, const DbscanParams& params,
                 MuDbscanConfig cfg = {});
  // Merges the engine's metrics into cfg.metrics (when supplied), so a
  // run-level registry accumulates across engines — e.g. one per simulated
  // rank — without any caller bookkeeping.
  ~MuDbscanEngine();

  // Phase 1+2 (Algorithm 3): micro-cluster formation, µR-tree construction,
  // inner-circle counts. Fills stats.t_tree.
  void build_tree();

  // Algorithm 5: reachable-MC lists. Fills stats.t_reach.
  void find_reachable();

  // Algorithms 4 + 6: preliminary clusters from DMC/CMC classification, then
  // PROCESS-REM-POINTS with dynamic wndq promotion. Fills stats.t_cluster.
  // Like post_process(), one code path at every thread count: without a
  // pool (num_threads == 1) its loops run inline (docs/PARALLEL.md).
  void cluster();

  // Algorithms 7 + 8: POST-PROCESSING-CORE (per micro-cluster pair) and
  // POST-PROCESSING-NOISE. Fills stats.t_post.
  void post_process();

  void run_all() {
    build_tree();
    find_reachable();
    cluster();
    post_process();
  }

  [[nodiscard]] ClusteringResult extract_result() const;

  [[nodiscard]] const MuRTree& tree() const { return *tree_; }
  [[nodiscard]] const Dataset& dataset() const { return *ds_; }
  [[nodiscard]] const DbscanParams& params() const { return params_; }
  [[nodiscard]] UnionFind& uf() { return uf_; }
  [[nodiscard]] const std::vector<std::uint8_t>& core_flags() const {
    return is_core_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& assigned_flags() const {
    return assigned_;
  }

  // Merged view of the engine's per-thread metric shards (obs/metrics.hpp):
  // the query-avoidance ledger, µR-tree internals, histograms. Complete
  // after post_process(); safe to call between phases for a partial view.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }

  // Per-worker busy/jobs totals of the engine's pool; empty without a pool
  // (num_threads == 1).
  [[nodiscard]] std::vector<ThreadPool::WorkerStats> worker_stats() const {
    return pool_ ? pool_->worker_stats()
                 : std::vector<ThreadPool::WorkerStats>{};
  }

  MuDbscanStats stats;

 private:
  // Trues up the budget charge for the engine-owned provisional-noise CSR
  // after the clustering phase sized it.
  void charge_scratch();

  // Dumps the phase-end counters that live outside the registry (µR-tree
  // index counters, MC-size / reachable-length histograms) into metrics_.
  // Called once at the end of post_process().
  void finalize_metrics();

  const Dataset* ds_;
  DbscanParams params_;
  MuDbscanConfig cfg_;
  ScopedCharge flags_charge_;              // flag vectors + union-find
  ScopedCharge scratch_charge_;            // noise CSR (trued up)
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  // Engine-owned metrics registry: always collected (the cost is per-thread
  // relaxed stores), merged into cfg_.metrics on destruction when set.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<MuRTree> tree_;
  UnionFind uf_;
  std::vector<std::uint8_t> is_core_;
  // Tagged wndq-core (skips its query); Algorithm 7's worklist is the set
  // of tagged points, gathered MC by MC.
  std::vector<std::uint8_t> wndq_;
  std::vector<std::uint8_t> assigned_;  // united into some cluster
  // noiseList with stored neighborhoods (Algorithm 8): flattened CSR buffer.
  // Invariant (established in the constructor): noise_off_ always holds
  // noise_pts_.size() + 1 offsets, even with zero noise points.
  std::vector<PointId> noise_pts_;
  std::vector<std::uint32_t> noise_off_;
  std::vector<PointId> noise_nbrs_;
};

}  // namespace udb
