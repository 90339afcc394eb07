#include "obs/report.hpp"

#include <cmath>
#include <cstdio>

#include "common/simd.hpp"
#include "common/vfs.hpp"

namespace udb::obs {

void JsonWriter::value(double v) {
  sep();
  if (!std::isfinite(v)) {
    out_.append("null");  // JSON has no inf/nan
  } else {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out_.append(buf);
  }
  mark_written();
}

void JsonWriter::value_u64(std::uint64_t v) {
  sep();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out_.append(buf);
  mark_written();
}

void JsonWriter::value_i64(std::int64_t v) {
  sep();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out_.append(buf);
  mark_written();
}

void JsonWriter::append_escaped(const char* s) {
  out_.push_back('"');
  for (const char* p = s; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    switch (c) {
      case '"': out_.append("\\\""); break;
      case '\\': out_.append("\\\\"); break;
      case '\n': out_.append("\\n"); break;
      case '\t': out_.append("\\t"); break;
      case '\r': out_.append("\\r"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_.append(buf);
        } else {
          out_.push_back(static_cast<char>(c));
        }
    }
  }
  out_.push_back('"');
}

namespace {

void write_hist(JsonWriter& w, const HistSnapshot& h) {
  w.begin_object();
  w.kv("count", h.count);
  w.kv("sum", h.sum);
  w.kv("mean", h.mean());
  w.kv("min", h.count == 0 ? std::uint64_t{0} : h.min);
  w.kv("max", h.max);
  // Sparse log2 buckets: [bucket_floor, count] pairs, zero buckets omitted.
  w.key("buckets");
  w.begin_array();
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    w.begin_array();
    w.value(b == 0 ? std::uint64_t{0} : std::uint64_t{1} << (b - 1));
    w.value(h.buckets[b]);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_metrics_snapshot(JsonWriter& w, const MetricsSnapshot& snap,
                            std::uint64_t points) {
  // Query-avoidance ledger: the paper's central claim as data. For the
  // sequential muDBSCAN engine performed + avoided_total == points exactly.
  const std::uint64_t performed = snap.counter(Counter::kQueriesPerformed);
  const std::uint64_t avoided =
      snap.counter(Counter::kQueriesAvoidedDmc) +
      snap.counter(Counter::kQueriesAvoidedCmc) +
      snap.counter(Counter::kQueriesAvoidedPromotion) +
      snap.counter(Counter::kQueriesAvoidedDenseCell) +
      snap.counter(Counter::kQueriesAvoidedDenseGroup);
  w.key("query_ledger");
  w.begin_object();
  w.kv("points", points);
  w.kv("queries_performed", performed);
  w.key("avoided");
  w.begin_object();
  w.kv("dmc", snap.counter(Counter::kQueriesAvoidedDmc));
  w.kv("cmc", snap.counter(Counter::kQueriesAvoidedCmc));
  w.kv("wndq_promotion", snap.counter(Counter::kQueriesAvoidedPromotion));
  w.kv("grid_dense_cell", snap.counter(Counter::kQueriesAvoidedDenseCell));
  w.kv("gdbscan_dense_group", snap.counter(Counter::kQueriesAvoidedDenseGroup));
  w.end_object();
  w.kv("avoided_total", avoided);
  w.kv("query_savings",
       points == 0 ? 0.0
                   : static_cast<double>(avoided) / static_cast<double>(points));
  w.end_object();

  w.key("murtree");
  w.begin_object();
  w.kv("num_mcs", snap.counter(Counter::kMcDense) +
                      snap.counter(Counter::kMcCore) +
                      snap.counter(Counter::kMcSparse));
  w.kv("dmc", snap.counter(Counter::kMcDense));
  w.kv("cmc", snap.counter(Counter::kMcCore));
  w.kv("smc", snap.counter(Counter::kMcSparse));
  w.kv("deferred_points", snap.counter(Counter::kMcDeferredPoints));
  w.kv("wndq_core_points", snap.counter(Counter::kWndqCorePoints));
  w.kv("aux_trees_searched", snap.counter(Counter::kAuxTreesSearched));
  w.kv("rtree_node_visits", snap.counter(Counter::kRtreeNodeVisits));
  w.kv("rtree_distance_evals", snap.counter(Counter::kRtreeDistanceEvals));
  w.kv("kernel_blocks", snap.counter(Counter::kKernelBlocks));
  w.kv("kernel_tail_points", snap.counter(Counter::kKernelTailPoints));
  w.end_object();

  w.key("unionfind");
  w.begin_object();
  w.kv("union_calls", snap.counter(Counter::kUnionCalls));
  w.kv("post_core_distance_evals",
       snap.counter(Counter::kPostCoreDistanceEvals));
  w.kv("post_core_mc_pairs", snap.counter(Counter::kPostCoreMcPairs));
  w.kv("post_core_mc_pairs_skipped",
       snap.counter(Counter::kPostCoreMcPairsSkipped));
  w.end_object();

  // Online insert/erase maintenance (core/incremental.*): how local the
  // updates stayed. mcs_touched is summed blast radius; the per-update
  // distribution is the inc_blast_radius histogram below.
  w.key("incremental");
  w.begin_object();
  w.kv("mcs_touched", snap.counter(Counter::kIncMcsTouched));
  w.kv("graph_edges_repaired",
       snap.counter(Counter::kIncGraphEdgesRepaired));
  w.kv("full_fallbacks", snap.counter(Counter::kIncFullFallbacks));
  w.end_object();

  // Flat catalog: every counter by name (units in docs/OBSERVABILITY.md).
  w.key("counters");
  w.begin_object();
  for (std::size_t i = 0; i < kNumCounters; ++i)
    w.kv(counter_name(static_cast<Counter>(i)), snap.counters[i]);
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (std::size_t i = 0; i < kNumHists; ++i) {
    w.key(hist_name(static_cast<Hist>(i)));
    write_hist(w, snap.hists[i]);
  }
  w.end_object();
}

std::string run_report_json(const RunReportInputs& in) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema_version", std::uint64_t{2});

  w.key("run");
  w.begin_object();
  w.kv("tool", in.tool);
  w.kv("algo", in.algo);
  w.kv("n", in.n);
  w.kv("dim", in.dim);
  w.kv("eps", in.eps);
  w.kv("min_pts", static_cast<std::uint64_t>(in.min_pts));
  w.kv("threads", in.threads);
  w.kv("ranks", in.ranks);
  w.kv("seconds", in.seconds);
  w.kv("approximate", in.approximate);
  w.kv("simd_target", simd_target_name(active_simd_target()));
  w.end_object();

  w.key("phases");
  w.begin_object();
  for (const auto& [name, secs] : in.phases) w.kv(name.c_str(), secs);
  w.end_object();

  write_metrics_snapshot(w, in.metrics, static_cast<std::uint64_t>(in.n));

  w.key("threadpool");
  w.begin_object();
  w.key("workers");
  w.begin_array();
  for (std::size_t i = 0; i < in.workers.size(); ++i) {
    w.begin_object();
    w.kv("tid", i);
    w.kv("busy_seconds", in.workers[i].busy_seconds);
    w.kv("jobs", in.workers[i].jobs);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (in.has_guard) {
    w.key("runguard");
    w.begin_object();
    w.kv("mem_peak_bytes", in.mem_peak_bytes);
    w.kv("mem_budget_bytes", in.mem_budget_bytes);
    w.kv("deadline_seconds", in.deadline_seconds);
    w.kv("checkpoints", in.guard_checkpoints);
    w.end_object();
  }

  if (!in.rank_stats.empty()) {
    w.key("ranks");
    w.begin_array();
    for (const RunReportInputs::Rank& r : in.rank_stats) {
      w.begin_object();
      w.kv("rank", r.rank);
      w.kv("n_local", r.n_local);
      w.kv("n_halo", r.n_halo);
      w.key("phase_seconds");
      w.begin_object();
      w.kv("partition", r.t_partition);
      w.kv("halo", r.t_halo);
      w.kv("local", r.t_local);
      w.kv("merge", r.t_merge);
      w.kv("scatter", r.t_scatter);
      w.end_object();
      w.kv("queries_performed", r.queries_performed);
      w.key("comm");
      w.begin_object();
      w.kv("msgs_sent", r.msgs_sent);
      w.kv("bytes_sent", r.bytes_sent);
      w.kv("msgs_recv", r.msgs_recv);
      w.kv("bytes_recv", r.bytes_recv);
      w.kv("retries", r.retries);
      w.kv("timeouts", r.timeouts);
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }

  w.end_object();
  return w.str() + "\n";
}

Status write_run_report(const RunReportInputs& in, const std::string& path) {
  // Through the VFS: open/write/close errors (including injected ENOSPC)
  // all surface as a Status — a metrics file is either complete or reported
  // failed, never silently truncated.
  return vfs::write_text_file(path, run_report_json(in));
}

}  // namespace udb::obs
