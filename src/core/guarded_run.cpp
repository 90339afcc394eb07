#include "core/guarded_run.hpp"

#include <chrono>

#include "baselines/sampled_dbscan.hpp"
#include "core/mudbscan_engine.hpp"
#include "obs/log.hpp"

namespace udb {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

StatusOr<GuardedRunReport> run_guarded(const Dataset& ds,
                                       const DbscanParams& params,
                                       const GuardedRunOptions& opts,
                                       RunGuard* external_guard) {
  if (!(params.eps > 0.0))
    return InvalidArgumentError("run_guarded: eps must be > 0");
  if (params.min_pts < 1)
    return InvalidArgumentError("run_guarded: min_pts must be >= 1");
  if (opts.ranks < 1)
    return InvalidArgumentError("run_guarded: ranks must be >= 1");
  if (opts.on_budget == OnBudget::kDegrade &&
      (!(opts.degrade_rho > 0.0) || opts.degrade_rho > 1.0))
    return InvalidArgumentError("run_guarded: degrade_rho must be in (0, 1]");

  RunGuard local_guard;
  RunGuard* guard = external_guard ? external_guard : &local_guard;
  guard->arm(opts.limits);

  const auto t0 = std::chrono::steady_clock::now();
  GuardedRunReport rep;

  // The dataset is the run's baseline allocation: charge it first so a budget
  // smaller than the input fails immediately with a clear message instead of
  // deep inside the tree build.
  ScopedCharge ds_charge;

  // Run-level registry: every engine this run creates (one for ranks == 1,
  // one per rank otherwise) merges into it on destruction, and the guard
  // feeds it the checkpoint-gap histogram. Detached from the guard before any
  // return — the registry is a local, the external guard may not be.
  obs::MetricsRegistry run_metrics;
  struct MetricsUnset {
    RunGuard* g;
    ~MetricsUnset() { g->set_metrics(nullptr); }
  } metrics_unset{guard};
  guard->set_metrics(&run_metrics);

  MuDbscanConfig mu = opts.mu;
  mu.guard = guard;
  mu.metrics = &run_metrics;
  mu.deadline_seconds = 0.0;  // the shared guard carries the limits
  mu.mem_budget_bytes = 0;
  mu.on_budget = OnBudget::kFail;  // engines always fail; we degrade here

  Status failure;
  try {
    ds_charge.acquire_throw(guard, vector_bytes(ds.raw()), "dataset");
    if (opts.ranks > 1) {
      DistConfig dist;
      dist.mu = mu;
      rep.result = mudbscan_d(ds, params, opts.ranks, &rep.dist_stats, dist);
    } else {
      // Drive the engine directly (not the mu_dbscan wrapper) so the report
      // can also harvest the pool's per-worker stats. Scoped: the engine's
      // destructor merges its shards into run_metrics.
      MuDbscanEngine engine(ds, params, mu);
      engine.run_all();
      rep.result = engine.extract_result();
      rep.stats = engine.stats;
      rep.workers = engine.worker_stats();
    }
    rep.metrics = run_metrics.snapshot();
    rep.mem_peak_bytes = guard->bytes_peak();
    rep.guard_checkpoints = guard->checkpoints_passed();
    rep.seconds = seconds_since(t0);
    return rep;
  } catch (...) {
    failure = status_from_current_exception();
  }
  // The exact engine has fully unwound here: every ScopedCharge it held is
  // released and its heap memory freed, so the fallback starts from the
  // dataset charge alone.

  const bool limit_trip = failure.code() == StatusCode::kDeadlineExceeded ||
                          failure.code() == StatusCode::kResourceExhausted;
  if (opts.on_budget != OnBudget::kDegrade || !limit_trip) {
    rep.mem_peak_bytes = guard->bytes_peak();  // unused, but keep peak honest
    return failure;
  }

  // Degrade: drop the limits (keep the cancel token — Ctrl-C still works),
  // rerun approximately, and flag the result.
  obs::LogLine(obs::LogLevel::kWarn, "guarded_run", "degrading")
      .kv("reason", failure.message())
      .kv("rho", opts.degrade_rho)
      .kv("elapsed_s", seconds_since(t0));
  guard->enter_degraded_mode();
  try {
    SampledDbscanStats sstats;
    rep.result = sampled_dbscan(ds, params, opts.degrade_rho,
                                opts.degrade_seed, &sstats, guard);
    rep.approximate = true;
    rep.sample_rho = opts.degrade_rho;
    rep.sample_size = sstats.sample_size;
    rep.degrade_reason = failure;
    rep.metrics = run_metrics.snapshot();  // counts from the abandoned run
    rep.mem_peak_bytes = guard->bytes_peak();
    rep.guard_checkpoints = guard->checkpoints_passed();
    rep.seconds = seconds_since(t0);
    return rep;
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace udb
