// fit_galaxy3d: repeated full fits of the MPAGD analog (n=80k, d=3, eps=1,
// MinPts=5) on one thread, through MuDbscanEngine's public phases. The MC
// assignment sweep inside build_tree is sequential and is the largest phase.
//
// The points are laid out in Z-order of 2*eps cells, as a spatially sorted
// file would store them. In a random layout a fit is ~2.3x slower, almost all
// of it cache misses, and its time follows the shared host's memory traffic
// instead of the engine. Point order also changes a fit's work (MCs are
// formed greedily in order), so every timed fit draws its own order of the
// points within each cell from the seed, and the median runs over many
// orders rather than one.

#include <algorithm>
#include <thread>

#include "core/mudbscan.hpp"
#include "core/mudbscan_engine.hpp"
#include "data/named.hpp"
#include "gates.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median (a warm-up fit takes most of
// one).
constexpr int kSetupReps = 5;

// Timed fits run sequentially: on a few shared cores a parallel fit waits
// for its slowest worker, and that measures the neighbours, not the engine.
constexpr unsigned kFitThreads = 1;

// Fits per thread count behind the traced run's parallel.* figures.
constexpr int kParallelReps = 3;

using udb::obs::Counter;

constexpr const char* kPhases[] = {"phase.build_tree", "phase.find_reachable",
                                   "phase.cluster", "phase.post_process",
                                   "phase.extract_result"};
constexpr std::size_t kNumPhases = std::size(kPhases);

// A fit of ds.select(order), relabelled to the points' ids in `ds`.
void to_dataset_ids(const udb::ClusteringResult& fit,
                    const std::vector<udb::PointId>& order,
                    udb::ClusteringResult& out) {
  out.label.resize(order.size());
  out.is_core.resize(order.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    out.label[order[j]] = fit.label[j];
    out.is_core[order[j]] = fit.is_core[j];
  }
}

struct Fit {
  udb::ClusteringResult result;
  double seconds = 0.0;
  double phase_s[kNumPhases] = {};
  udb::obs::MetricsSnapshot counters;
  udb::MuDbscanStats stats;
  double busy_s = 0.0;  // summed pool worker busy time; 0 without a pool
};

// One full fit, timed from engine construction to the extracted result. The
// phase spans exist only when `tr` is set; the counters are read after the
// clock stops.
Fit timed_fit(const udb::Dataset& ds, const udb::DbscanParams& prm,
              unsigned threads, Tracer* tr, std::uint64_t trace_id) {
  udb::MuDbscanConfig cfg;
  cfg.num_threads = threads;
  Fit f;
  const auto t0 = Clock::now();
  Span root(tr, "fit", trace_id);
  udb::MuDbscanEngine eng(ds, prm, cfg);
  Span s0(tr, kPhases[0]);
  eng.build_tree();
  f.phase_s[0] = s0.end();
  Span s1(tr, kPhases[1]);
  eng.find_reachable();
  f.phase_s[1] = s1.end();
  Span s2(tr, kPhases[2]);
  eng.cluster();
  f.phase_s[2] = s2.end();
  Span s3(tr, kPhases[3]);
  eng.post_process();
  f.phase_s[3] = s3.end();
  Span s4(tr, kPhases[4]);
  f.result = eng.extract_result();
  f.phase_s[4] = s4.end();
  root.end();
  f.seconds = seconds_between(t0, Clock::now());
  f.counters = eng.metrics_snapshot();
  f.stats = eng.stats;
  for (const auto& w : eng.worker_stats()) f.busy_s += w.busy_seconds;
  return f;
}

}  // namespace

RunResult run_fit(const Options& opt, Tracer& tracer) {
  RunResult r;

  // Setup: generate the points (the registry's fixed analog), lay them out
  // in Z-order (within a cell, in the registry's order) and run one untimed
  // warm-up fit. Its result is the checked fit every timed fit is compared
  // with, and its counters are the work counts.
  udb::NamedDataset nd;
  udb::Dataset ref;
  Fit base;
  udb::ClusteringResult checked;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    nd = udb::make_named_dataset("MPAGD", 1.0);
    const auto order = z_order(nd.data, kCellEps * nd.params.eps,
                               identity_order(nd.data.size()));
    ref = nd.data.select(order);
    base = timed_fit(ref, nd.params, kFitThreads, nullptr, 0);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    to_dataset_ids(base.result, order, checked);
  }
  const udb::Dataset& ds = nd.data;
  const udb::DbscanParams prm = nd.params;

  std::vector<double> plain_s, traced_s, phase_gap_s;
  std::vector<double> phase_s[kNumPhases];
  udb::ClusteringResult unpermuted;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;
       seconds_between(start, Clock::now()) < opt.seconds ||
       plain_s.size() < 2 || (opt.trace && traced_s.size() < 2);
       ++i) {
    // Untimed: this fit's point order, drawn from the seed.
    const auto order =
        z_order(ds, kCellEps * prm.eps,
                shuffled_order(ds.size(), (opt.seed << 20) + i + 1));
    const udb::Dataset points = ds.select(order);
    // The traced run alternates traced and untraced fits, so the tracing
    // overhead is measured in one process.
    const bool traced = opt.trace && i % 2 == 1;
    Fit f = timed_fit(points, prm, kFitThreads, traced ? &tracer : nullptr,
                      i + 1);
    ++r.attempted;
    to_dataset_ids(f.result, order, unpermuted);
    if (std::string e = check_same_fit(checked, unpermuted, false); !e.empty())
      r.fail(e);
    if (traced) {
      traced_s.push_back(f.seconds);
      double gap = f.seconds;
      for (std::size_t p = 0; p < kNumPhases; ++p) {
        phase_s[p].push_back(f.phase_s[p]);
        gap -= f.phase_s[p];
      }
      phase_gap_s.push_back(gap);
    } else {
      plain_s.push_back(f.seconds);
    }
  }

  // Read before the oracle runs, so the oracle's memory is not counted.
  const double rss_mb = peak_rss_mb();
  ++r.attempted;
  if (std::string e = check_against_grid(ds, prm, checked); !e.empty())
    r.fail(e);

  const double n = static_cast<double>(ds.size());
  const double fit_s = median(plain_s);
  r.config = {{"dataset", json_string("MPAGD analog")},
              {"n", json_number(n)},
              {"d", json_number(static_cast<double>(ds.dim()))},
              {"eps", json_number(prm.eps)},
              {"min_pts", json_number(prm.min_pts)},
              {"threads", json_number(kFitThreads)},
              {"point_order",
               json_string("Z-order of 2*eps cells, seeded within a cell")},
              {"oracle", json_string("compare_exact vs grid_dbscan")}};

  if (!opt.trace) {
    r.metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size(),
         "generate + Z-order layout + warm-up fit"},
        {"p50_ms", 1e3 * fit_s, "ms", plain_s.size(),
         "full fits, one point order each"},
        {"throughput_per_s", n / fit_s, "1/s", plain_s.size(),
         "points clustered per second of median fit"},
        {"peak_rss_mb", rss_mb, "MB", 1, "process, before the oracle"},
    };
    r.extra = {{"fit_s", fit_s, "s", plain_s.size(), "full fits"},
               {"points_per_s", n / fit_s, "1/s", plain_s.size(), "full fits"},
               {"fits", static_cast<double>(plain_s.size()), "count", 0, ""}};
    return r;
  }

  // ---- traced run: per-layer numbers ------------------------------------
  // Fits of the set-up's layout on one thread and on every hardware thread,
  // alternated: the pool's busy time, efficiency and speed-up.
  const unsigned par = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one_s, par_s, busy, efficiency;
  for (int rep = 0; rep < kParallelReps && par > 1; ++rep) {
    for (const unsigned threads : {1u, par}) {
      const Fit f = timed_fit(ref, prm, threads, nullptr, 0);
      ++r.attempted;
      if (std::string e = check_same_fit(base.result, f.result, threads == 1);
          !e.empty())
        r.fail(e);
      if (threads == 1) {
        one_s.push_back(f.seconds);
      } else {
        par_s.push_back(f.seconds);
        busy.push_back(f.busy_s);
        efficiency.push_back(f.busy_s / (threads * f.seconds));
      }
    }
  }

  const double traced_fit = median(traced_s);
  double phase_sum = 0.0;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const double v = median(phase_s[p]);
    phase_sum += v;
    r.metrics.push_back({std::string(kPhases[p]) + "_s", v, "s",
                         phase_s[p].size(), "traced fits"});
  }
  // Work counts of the sequential warm-up fit on the set-up's layout: they
  // repeat exactly from run to run.
  const auto& c = base.counters;
  const auto& st = base.stats;
  auto count = [&c](Counter k) { return static_cast<double>(c.counter(k)); };
  const double evals = count(Counter::kRtreeDistanceEvals);
  // Computed, not measured: each evaluation reads d 8-byte coordinates and
  // does a sub, a mul and an add per coordinate.
  const double bytes = evals * static_cast<double>(ds.dim()) * 8.0;
  const double ops = evals * static_cast<double>(ds.dim()) * 3.0;
  const double avoided = static_cast<double>(
      st.avoided_dmc + st.avoided_cmc + st.avoided_promotion);
  const std::vector<Metric> layer = {
      {"murtree.num_mcs", static_cast<double>(st.num_mcs), "count"},
      {"murtree.deferred_points", count(Counter::kMcDeferredPoints), "count"},
      {"murtree.aux_trees_searched", count(Counter::kAuxTreesSearched),
       "count"},
      {"index.rtree_node_visits", count(Counter::kRtreeNodeVisits), "count"},
      {"index.rtree_distance_evals", evals, "count"},
      {"simd.kernel_blocks", count(Counter::kKernelBlocks), "count"},
      {"simd.kernel_tail_points", count(Counter::kKernelTailPoints),
       "count"},
      {"simd.computed_bytes", bytes, "B"},
      {"simd.ops_per_byte", bytes > 0 ? ops / bytes : 0.0, "ops/B"},
      {"engine.queries_performed", static_cast<double>(st.queries_performed),
       "count"},
      {"engine.query_savings", avoided / n, "ratio"},
      {"engine.wndq_core_points", static_cast<double>(st.wndq_core_points),
       "count"},
      {"unionfind.union_calls", count(Counter::kUnionCalls), "count"},
      {"unionfind.post_core_distance_evals",
       static_cast<double>(st.post_core_distance_evals), "count"},
      {"parallel.busy_s", median(busy), "s", busy.size()},
      {"parallel.efficiency", median(efficiency), "ratio", efficiency.size()},
      {"parallel.speedup_vs_1t",
       par_s.empty() ? 0.0 : median(one_s) / median(par_s), "ratio",
       par_s.size()},
      {"trace.overhead_ms", 1e3 * (traced_fit - fit_s), "ms"},
  };
  r.metrics.insert(r.metrics.end(), layer.begin(), layer.end());
  r.extra = {{"fit_s", fit_s, "s", plain_s.size(), "untraced fits"},
             {"traced_fit_s", traced_fit, "s", traced_s.size(), "traced fits"},
             {"phase_sum_s", phase_sum, "s", traced_s.size(),
              "sum of phase medians"},
             {"phase_gap_s", median(phase_gap_s), "s", traced_s.size(),
              "traced fit minus its phases"},
             {"one_thread_fit_s", median(one_s), "s", one_s.size(),
              "set-up layout, one thread"},
             {"parallel_fit_s", median(par_s), "s", par_s.size(),
              "set-up layout, every hardware thread"},
             {"parallel_threads", static_cast<double>(par), "count"}};
  std::printf("phase check: a traced fit exceeds its phases by %.6f s "
              "(median); traced fit_s %.6f s, untraced %.6f s, tracing "
              "overhead %.6f s\n",
              median(phase_gap_s), traced_fit, fit_s, traced_fit - fit_s);
  return r;
}

}  // namespace perfbench
