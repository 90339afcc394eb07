// Guarded entry point: the one place where a DBSCAN run becomes a governable
// unit of work. run_guarded() arms a RunGuard with the caller's deadline /
// memory budget, charges the dataset against it, runs the exact engine
// (shared-memory µDBSCAN or the distributed µDBSCAN-D driver), and converts
// every failure into a Status the caller can branch on — nothing escapes as a
// crash.
//
// Degradation contract (docs/ROBUSTNESS.md): when the exact run trips its
// deadline or budget and the policy is OnBudget::kDegrade, the guard enters
// degraded mode (limits dropped, cancel token kept) and the run falls back to
// sampled_dbscan on the same data, at the fixed rate kDegradeRho and seed
// kDegradeSeed, so one input always degrades to one answer. The report is
// then explicitly flagged `approximate` with the achieved sample rate — a
// degraded result is never silently passed off as exact. User cancellation (SIGINT) never degrades:
// the user asked for the run to stop, not for a worse answer.

#pragma once

#include <cstdint>
#include <vector>

#include "common/dataset.hpp"
#include "common/parallel.hpp"
#include "common/runguard.hpp"
#include "common/status.hpp"
#include "core/mudbscan.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/clustering.hpp"
#include "obs/metrics.hpp"

namespace udb {

// The degraded fallback's sampling rate and seed.
inline constexpr double kDegradeRho = 0.25;
inline constexpr std::uint64_t kDegradeSeed = 1;

struct GuardedRunOptions {
  RunLimits limits;                     // deadline / memory budget (0 = none)
  OnBudget on_budget = OnBudget::kFail; // policy when a limit trips
  MuDbscanConfig mu;    // engine knobs (num_threads, ablations); guard and
                        // metrics are overwritten by run_guarded
  int ranks = 1;        // > 1: run the distributed driver on this many ranks
};

struct GuardedRunReport {
  ClusteringResult result;

  // Degradation outcome. `approximate` is false for an exact result; when
  // true, `degrade_reason` records why the exact run was abandoned and
  // sample_rho / sample_size record what the fallback actually used.
  bool approximate = false;
  double sample_rho = 1.0;
  std::size_t sample_size = 0;
  Status degrade_reason;

  MuDbscanStats stats;        // populated for shared-memory runs
  MuDbscanDStats dist_stats;  // populated for ranks > 1

  // Run-level metrics registry snapshot: for ranks == 1 the engine's shards,
  // for ranks > 1 every rank engine merged together. On a degraded run this
  // still holds whatever the abandoned exact run counted.
  obs::MetricsSnapshot metrics;
  // ThreadPool per-worker busy/jobs (tid order); empty when num_threads == 1
  // or ranks > 1 (rank engines are single-threaded within their rank).
  std::vector<ThreadPool::WorkerStats> workers;

  std::size_t mem_peak_bytes = 0;       // high-water mark of guarded charges
  std::uint64_t guard_checkpoints = 0;  // cooperative checkpoints passed
  double seconds = 0.0;                 // wall time of the whole guarded run
};

// Runs DBSCAN under the guard. On success returns the report; on failure the
// Status carries DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED / CANCELLED /
// INVALID_ARGUMENT / INTERNAL with a message. All engine memory is reclaimed
// before this returns (RAII on the unwind path — the acceptance test runs it
// under ASan/LSan).
//
// `external_guard` (optional) lets the caller own the guard — the CLI does
// this so its SIGINT handler can trip the cancel token. It is re-armed with
// opts.limits on entry.
[[nodiscard]] StatusOr<GuardedRunReport> run_guarded(
    const Dataset& ds, const DbscanParams& params,
    const GuardedRunOptions& opts = {}, RunGuard* external_guard = nullptr);

}  // namespace udb
