// µDBSCAN (Section IV, Algorithms 2-8): exact DBSCAN that identifies a large
// fraction of core points *without* performing their eps-neighborhood
// queries, via micro-cluster classification (DMC/CMC) and dynamic wndq-core
// promotion, then repairs the few missing cluster connections in two cheap
// post-processing passes. Produces exactly the classical DBSCAN clustering
// (Theorem 1): same core set, same core partition, same noise set.

#pragma once

#include <cstdint>

#include "common/dataset.hpp"
#include "common/runguard.hpp"
#include "core/murtree.hpp"
#include "metrics/clustering.hpp"

namespace udb {

namespace obs {
class MetricsRegistry;
class Tracer;
}

struct MuDbscanConfig {
  // Ablation switches (all true = the paper's algorithm).
  bool two_eps_rule = true;        // Algorithm 3's MC-count limiting rule
  bool dynamic_promotion = true;   // Algorithm 6 lines 18-21
  bool mbr_filtration = true;      // reachable-MC MBR filter in FIND-NBHD

  // Real shared-memory parallelism (paper Section VII). >1 runs the
  // AuxR-tree tiling, inner-circle/reachable computation, Algorithms 4/6 and
  // both post-processing passes on a thread pool of this size, with a
  // lock-free union-find. 1 runs the same loops inline, without a pool. The
  // clustering stays exactly equal to sequential DBSCAN at every thread
  // count (see docs/PARALLEL.md).
  //
  // Stats determinism at num_threads > 1: num_mcs, dmc/cmc/smc, avoided_dmc
  // and avoided_cmc are identical at every thread count (Algorithm 4 writes
  // are thread-exclusive and a promotion can never overwrite a DMC/CMC tag —
  // it claims the tag byte with a compare-exchange from 0). Only
  // queries_performed and avoided_promotion may differ run-to-run, trading
  // exactly one-for-one: a point promoted concurrently with its own
  // Algorithm 6 turn either sees the tag in time (counted avoided) or runs a
  // redundant query (counted performed). The redundant query is harmless —
  // it returns the same neighborhood and re-derives the same unions — and
  // the ledger identity queries_performed + avoided_total == n holds at
  // every thread count. Downstream of that same race, wndq_core_points,
  // post_core_distance_evals, post_core_mc_pairs(_skipped) and the
  // provisional-noise/border-repair counts also vary with promotion timing
  // (and the Algorithm 7 counts with union timing); the clustering never
  // does.
  unsigned num_threads = 1;

  // ---- observability (docs/OBSERVABILITY.md) -----------------------------
  // Optional parent metrics registry (not owned). The engine always collects
  // into its own per-thread sharded registry; on destruction it merges its
  // snapshot into `metrics` when one is supplied (thread-safe: concurrent
  // rank engines may merge into one run-level registry).
  obs::MetricsRegistry* metrics = nullptr;
  // Optional tracer (not owned): the engine emits phase.* spans and the
  // µR-tree build.* spans when set; null costs one branch per span site.
  obs::Tracer* tracer = nullptr;

  // ---- run-guard limits (docs/ROBUSTNESS.md) -----------------------------
  // When a limit is set (or `guard` is supplied) the engine runs cooperative
  // checkpoints in every phase; a violation aborts the run with a
  // StatusError carrying DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED / CANCELLED
  // and all memory is reclaimed on unwind. `on_budget` is the policy the
  // guarded entry point (core/guarded_run.*) applies on exhaustion; the
  // engine itself always fails cleanly and leaves degradation to the caller.
  double deadline_seconds = 0.0;        // <= 0: none
  std::size_t mem_budget_bytes = 0;     // 0: none
  OnBudget on_budget = OnBudget::kFail;
  // External guard (not owned). Supplying one shares a deadline/budget/token
  // across engines (each distributed rank's engine shares the run's guard);
  // when null and a limit above is set, the engine owns a private guard.
  RunGuard* guard = nullptr;
};

// Thin scalar view over the engine's metrics registry (the counters below
// are filled from the same per-thread shards the obs run report snapshots;
// see Counter in obs/metrics.hpp for the full catalog).
struct MuDbscanStats {
  std::size_t num_mcs = 0;
  std::size_t dmc = 0, cmc = 0, smc = 0;
  std::uint64_t queries_performed = 0;
  // Query-avoidance ledger by reason (Algorithm 6 skip site):
  // queries_performed + avoided_dmc + avoided_cmc + avoided_promotion == n.
  std::uint64_t avoided_dmc = 0;        // tagged by a dense MC (Lemma 1)
  std::uint64_t avoided_cmc = 0;        // tagged as a core-MC centre (Lemma 2)
  std::uint64_t avoided_promotion = 0;  // tagged by dynamic wndq promotion
  std::uint64_t wndq_core_points = 0;  // cores identified without a query
  std::uint64_t post_core_distance_evals = 0;
  // Algorithm 7 work at MC granularity: (MC, reachable MC) pairs checked,
  // and those skipped because one set already held the MC's wndq cores and
  // the reachable MC's cores.
  std::uint64_t post_core_mc_pairs = 0;
  std::uint64_t post_core_mc_pairs_skipped = 0;

  // Phase wall times, matching the paper's Table III split:
  double t_tree = 0.0;     // µR-tree construction (incl. MC formation)
  double t_reach = 0.0;    // finding reachable MCs
  double t_cluster = 0.0;  // MC processing + PROCESS-REM-POINTS
  double t_post = 0.0;     // POST-PROCESSING-CORE + -NOISE

  [[nodiscard]] double total() const noexcept {
    return t_tree + t_reach + t_cluster + t_post;
  }
  [[nodiscard]] double query_save_fraction(std::size_t n) const noexcept {
    return n == 0 ? 0.0
                  : 1.0 - static_cast<double>(queries_performed) /
                              static_cast<double>(n);
  }
};

[[nodiscard]] ClusteringResult mu_dbscan(const Dataset& ds,
                                         const DbscanParams& params,
                                         MuDbscanStats* stats = nullptr,
                                         const MuDbscanConfig& cfg = {});

}  // namespace udb
