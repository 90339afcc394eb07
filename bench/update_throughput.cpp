// Incremental-update bench (docs/INCREMENTAL.md): sustained insert/erase
// throughput of the IncrementalMuDbscan engine against the naive alternative
// — refitting mu_dbscan from scratch after every update, which is what a
// serving deployment without the incremental engine would have to do.
//
// Three workloads over a blob dataset: insert-only growth, delete-only decay,
// and the serving-shaped mixed stream (60% insert / 40% erase). Each is
// timed end to end through the engine; the refit baseline is measured by
// actually running mu_dbscan over the final survivor set (averaged over a few
// runs), so `speedup_vs_refit = refit_seconds * updates / engine_seconds` is
// an apples-to-apples "updates the engine sustains while one refit runs".
//
// Before any number is reported, every workload proves exactness: the
// engine's result() must equal the canonicalized batch clustering of the
// survivors (the same oracle the differential test suite uses). A full run
// (not --quick) additionally asserts the headline acceptance bound: the
// mixed workload must sustain >= 10x updates/s over refit-per-update at
// n >= 10k. Emits BENCH_update.json (gated in CI by tools/benchdiff).

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "common/vfs.hpp"
#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"

using namespace udb;

namespace {

struct WorkloadResult {
  std::string name;
  std::size_t updates = 0;
  std::size_t final_points = 0;
  double seconds = 0.0;
  double updates_per_sec = 0.0;
  double updates_per_sec_floor = 0.0;
  double refit_seconds_per_update = 0.0;
  double speedup_vs_refit = 0.0;
  bool exact = false;
};

// Applies `ops` (insert row index >= 0, erase id encoded as -(id+1)) through
// a fresh engine seeded with `base`, then measures the refit baseline over
// the final survivors and verifies exactness.
WorkloadResult run_workload(const char* name, const Dataset& base,
                            const Dataset& pool, const DbscanParams& params,
                            const std::vector<std::int64_t>& ops,
                            std::size_t refit_reps,
                            obs::MetricsRegistry* metrics) {
  IncrementalMuDbscan::Config cfg;
  cfg.metrics = metrics;
  IncrementalMuDbscan eng(base.dim(), params, cfg);
  for (std::size_t i = 0; i < base.size(); ++i)
    eng.insert(base.point(static_cast<PointId>(i)));

  WallTimer t;
  for (const std::int64_t op : ops) {
    if (op >= 0)
      eng.insert(pool.point(static_cast<PointId>(op)));
    else
      eng.erase(static_cast<PointId>(-(op + 1)));
  }
  WorkloadResult r;
  r.name = name;
  r.updates = ops.size();
  r.seconds = t.seconds();
  r.updates_per_sec = static_cast<double>(r.updates) / r.seconds;
  r.final_points = eng.size();

  const Dataset survivors = eng.survivors();
  const ClusteringResult inc = eng.result();

  double refit_total = 0.0;
  ClusteringResult batch;
  for (std::size_t rep = 0; rep < refit_reps; ++rep) {
    WallTimer rt;
    batch = mu_dbscan(survivors, params);
    refit_total += rt.seconds();
  }
  r.refit_seconds_per_update =
      refit_total / static_cast<double>(refit_reps);
  r.speedup_vs_refit =
      r.refit_seconds_per_update / (r.seconds / static_cast<double>(r.updates));

  const ClusteringResult ref =
      canonicalize_clustering(survivors, params, std::move(batch));
  r.exact = inc.label == ref.label && inc.is_core == ref.is_core;
  if (!r.exact)
    throw std::runtime_error(
        std::string("EXACTNESS VIOLATION: workload ") + name +
        " diverged from the canonicalized batch clustering");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const bool quick = cli.get_bool("quick", false);
    const auto n = static_cast<std::size_t>(
        cli.get_int_at_least("n", quick ? 3000 : 12000, 100));
    const auto updates = static_cast<std::size_t>(
        cli.get_int_in_range("updates", quick ? 200 : 2000, 10, 1000000));
    const double eps = cli.get_positive_double("eps", 1.5);
    const auto min_pts = static_cast<std::uint32_t>(
        cli.get_int_in_range("minpts", 5, 1, 1000));
    const std::string out_path = cli.get_string("out", "BENCH_update.json");
    cli.check_unused();

    bench::header("update_throughput — incremental updates vs refit",
                  "extension: exact insert/delete maintenance "
                  "(docs/INCREMENTAL.md)",
                  "speedup is refit-per-update cost over amortized "
                  "incremental cost");

    const std::size_t dim = 2;
    const DbscanParams params{eps, min_pts};
    const Dataset base = gen_blobs(n, dim, 16, 60.0, 1.0, 0.08, 42);
    // Insert pool drawn from the same distribution: updates land inside
    // clusters (the expensive case — promotions and merges), not in the void.
    const Dataset pool = gen_blobs(updates, dim, 16, 60.0, 1.0, 0.08, 43);
    const std::size_t refit_reps = quick ? 1 : 3;

    std::mt19937_64 rng(7);
    // insert-only: every pool row in order.
    std::vector<std::int64_t> ins_ops(updates);
    for (std::size_t i = 0; i < updates; ++i)
      ins_ops[i] = static_cast<std::int64_t>(i);
    // delete-only: distinct random base ids.
    std::vector<std::int64_t> del_ops;
    {
      std::vector<std::int64_t> ids(n);
      for (std::size_t i = 0; i < n; ++i)
        ids[i] = -(static_cast<std::int64_t>(i) + 1);
      std::shuffle(ids.begin(), ids.end(), rng);
      del_ops.assign(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(updates, n / 2)));
    }
    // mixed: 60% inserts / 40% erases of still-alive ids, serving-shaped.
    std::vector<std::int64_t> mix_ops;
    {
      std::vector<PointId> alive(n);
      for (std::size_t i = 0; i < n; ++i) alive[i] = static_cast<PointId>(i);
      PointId next_id = static_cast<PointId>(n);
      std::size_t pool_cursor = 0;
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      for (std::size_t k = 0; k < updates; ++k) {
        if (coin(rng) < 0.6 || alive.size() < 2) {
          mix_ops.push_back(
              static_cast<std::int64_t>(pool_cursor++ % pool.size()));
          alive.push_back(next_id++);
        } else {
          std::uniform_int_distribution<std::size_t> pick(0, alive.size() - 1);
          const std::size_t j = pick(rng);
          mix_ops.push_back(-(static_cast<std::int64_t>(alive[j]) + 1));
          alive[j] = alive.back();
          alive.pop_back();
        }
      }
    }

    obs::MetricsRegistry metrics;
    std::vector<WorkloadResult> results;
    bench::row("%12s | %8s %9s | %12s %16s %10s", "workload", "updates",
               "final_n", "updates/s", "refit_s/update", "speedup");
    bench::rule();
    // Each workload's absolute updates/s floor, written to the document so
    // a re-measured baseline keeps it (benchdiff gates a fresh run's rate
    // against the baseline's floor).
    const struct {
      const char* name;
      const std::vector<std::int64_t>* ops;
      double updates_per_sec_floor;
    } kWorkloads[] = {
        {"insert_only", &ins_ops, 120000},
        {"delete_only", &del_ops, 800},
        {"mixed_60_40", &mix_ops, 1800},
    };
    for (const auto& wl : kWorkloads) {
      WorkloadResult r = run_workload(wl.name, base, pool, params, *wl.ops,
                                      refit_reps, &metrics);
      r.updates_per_sec_floor = wl.updates_per_sec_floor;
      bench::row("%12s | %8zu %9zu | %12.0f %16.6f %9.1fx", r.name.c_str(),
                 r.updates, r.final_points, r.updates_per_sec,
                 r.refit_seconds_per_update, r.speedup_vs_refit);
      results.push_back(std::move(r));
    }
    bench::rule();

    // Headline acceptance bound: at n >= 10k a full run must sustain >= 10x
    // updates/s over refit-per-update on the mixed workload. --quick runs
    // are too small for the bound to be meaningful (refit is cheap at 3k
    // points), so they only check exactness.
    if (!quick && n >= 10000) {
      for (const WorkloadResult& r : results) {
        if (r.name != "mixed_60_40") continue;
        if (r.speedup_vs_refit < 10.0)
          throw std::runtime_error(
              "SPEEDUP BOUND VIOLATION: mixed workload sustained only " +
              std::to_string(r.speedup_vs_refit) +
              "x over refit-per-update (bound: 10x at n >= 10k)");
        bench::row("acceptance: mixed %0.1fx >= 10x over refit-per-update "
                   "at n = %zu — holds",
                   r.speedup_vs_refit, n);
      }
    }

    const obs::MetricsSnapshot ms = metrics.snapshot();
    bench::row("blast radius: %llu MCs touched over %llu tracked updates, "
               "%llu graph edges repaired, %llu full fallbacks",
               static_cast<unsigned long long>(
                   ms.counter(obs::Counter::kIncMcsTouched)),
               static_cast<unsigned long long>(
                   ms.hist(obs::Hist::kIncBlastRadius).count),
               static_cast<unsigned long long>(
                   ms.counter(obs::Counter::kIncGraphEdgesRepaired)),
               static_cast<unsigned long long>(
                   ms.counter(obs::Counter::kIncFullFallbacks)));

    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"update_throughput\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"n\": " << n << ",\n"
        << "  \"dim\": " << dim << ",\n"
        << "  \"eps\": " << eps << ",\n"
        << "  \"min_pts\": " << min_pts << ",\n"
        << "  \"updates\": " << updates << ",\n"
        << "  \"refit_reps\": " << refit_reps << ",\n"
        << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      out << "    {\"name\": \"" << r.name << "\", \"updates\": " << r.updates
          << ", \"final_points\": " << r.final_points
          << ", \"seconds\": " << r.seconds
          << ", \"updates_per_sec\": " << r.updates_per_sec
          << ", \"updates_per_sec_floor\": " << r.updates_per_sec_floor
          << ", \"refit_seconds_per_update\": " << r.refit_seconds_per_update
          << ", \"speedup_vs_refit\": " << r.speedup_vs_refit
          << ", \"exact\": " << (r.exact ? "true" : "false") << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"metrics\": " << bench::metrics_json_object(ms, 0) << "\n"
        << "}\n";
    const Status st = vfs::write_text_file(out_path, out.str());
    if (!st.ok()) throw std::runtime_error(st.to_string());
    bench::row("json written to %s", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "update_throughput: error: %s\n", e.what());
    return 1;
  }
}
